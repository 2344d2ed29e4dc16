//! The argument parser behind every `gopim` command but `lint` and
//! `bench-diff`: each argument must be a flag the command declares, or
//! one of the positionals it takes, so a typo is a usage error instead
//! of a silently different run.

use std::str::FromStr;

/// The arguments one command accepts.
pub struct Flags {
    /// Flags that stand alone, such as `--quick`.
    pub switches: &'static [&'static str],
    /// Flags followed by a value, such as `--budget N`.
    pub options: &'static [&'static str],
    /// How many positional arguments are allowed.
    pub positionals: usize,
}

impl Flags {
    /// Accepts nothing.
    pub const NONE: Flags = Flags::positionals(0);

    /// Accepts up to `n` positionals and no flag.
    pub const fn positionals(n: usize) -> Flags {
        Flags {
            switches: &[],
            options: &[],
            positionals: n,
        }
    }
}

/// Arguments checked against the [`Flags`] of a command.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    switches: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `args` against the union of `accepted`.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag, an option without a value, or an
    /// argument beyond the most positionals any of `accepted` allows.
    pub fn parse(args: &[String], accepted: &[&Flags]) -> Result<Args, String> {
        let find = |names: fn(&Flags) -> &'static [&'static str], arg: &str| {
            accepted
                .iter()
                .flat_map(|f| names(f))
                .copied()
                .find(|&name| name == arg)
        };
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(switch) = find(|f| f.switches, arg) {
                parsed.switches.push(switch);
            } else if let Some(option) = find(|f| f.options, arg) {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{option} expects a value"))?;
                parsed.options.push((option, value.clone()));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else if accepted
                .iter()
                .any(|f| parsed.positionals.len() < f.positionals)
            {
                parsed.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(parsed)
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value of `option`'s last occurrence.
    pub fn value(&self, option: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(name, _)| *name == option)
            .map(|(_, value)| value.as_str())
    }

    /// The value of `option` parsed as a number.
    ///
    /// # Errors
    ///
    /// Names the option and the value that is not a number.
    pub fn number<T: FromStr>(&self, option: &str) -> Result<Option<T>, String> {
        self.value(option)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{option} expects an integer, got '{v}'"))
            })
            .transpose()
    }

    /// The `i`-th positional argument, if one was given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

#[cfg(test)]
pub fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Flags = Flags {
        switches: &["--quick"],
        options: &["--budget"],
        positionals: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&strings(args), &[&TEST])
    }

    #[test]
    fn parses_flags() {
        let a = parse(&["--quick", "--budget", "1000", "extra"]).unwrap();
        assert!(a.has("--quick"));
        assert_eq!(a.number::<usize>("--budget"), Ok(Some(1000)));
        assert_eq!(a.positional(0), Some("extra"));
        let none = parse(&[]).unwrap();
        assert!(!none.has("--quick"));
        assert_eq!(none.number::<usize>("--budget"), Ok(None));
        assert_eq!(none.positional(0), None);
    }

    #[test]
    fn the_last_occurrence_of_an_option_wins() {
        let a = parse(&["--budget", "1", "--budget", "2"]).unwrap();
        assert_eq!(a.value("--budget"), Some("2"));
    }

    #[test]
    fn flags_from_every_accepted_set_parse() {
        const MORE: Flags = Flags {
            switches: &["--cora"],
            options: &[],
            positionals: 0,
        };
        let a = Args::parse(&strings(&["--cora", "--quick"]), &[&TEST, &MORE]).unwrap();
        assert!(a.has("--cora") && a.has("--quick"));
        assert!(Args::parse(&strings(&["--cora"]), &[&TEST])
            .unwrap_err()
            .contains("unknown flag '--cora'"));
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert_eq!(parse(&["--quik"]), Err("unknown flag '--quik'".into()));
        assert_eq!(parse(&["-q"]), Err("unknown flag '-q'".into()));
    }

    #[test]
    fn an_option_needs_a_value() {
        let missing = "--budget expects a value";
        assert_eq!(parse(&["--budget"]), Err(missing.into()));
        // A flag in the value's place is not a value.
        assert_eq!(parse(&["--budget", "--quick"]), Err(missing.into()));
    }

    #[test]
    fn a_non_integer_number_is_an_error() {
        for bad in ["lots", "-5", "1.5", ""] {
            let a = parse(&["--budget", bad]).unwrap();
            assert_eq!(
                a.number::<usize>("--budget"),
                Err(format!("--budget expects an integer, got '{bad}'"))
            );
        }
    }

    #[test]
    fn positionals_are_counted() {
        assert_eq!(
            parse(&["cora", "ddi"]),
            Err("unexpected argument 'ddi'".into())
        );
        assert_eq!(
            Args::parse(&strings(&["cora"]), &[&Flags::NONE]),
            Err("unexpected argument 'cora'".into())
        );
        let three = Args::parse(&strings(&["a", "b", "c"]), &[&Flags::positionals(3)]).unwrap();
        assert_eq!(
            (
                three.positional(0),
                three.positional(2),
                three.positional(3)
            ),
            (Some("a"), Some("c"), None)
        );
        assert_eq!(
            Args::parse(&strings(&["a", "b", "c", "d"]), &[&Flags::positionals(3)]),
            Err("unexpected argument 'd'".into())
        );
    }
}

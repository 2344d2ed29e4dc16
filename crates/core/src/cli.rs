//! Argument parsing for the `gopim` CLI binary (kept in the library so
//! it is unit-testable).

use gopim_graph::datasets::Dataset;
use gopim_obs::env::Env;

use crate::experiments::faults::CampaignConfig;
use crate::system::System;

/// Resolves a dataset by its paper name, case-insensitively.
///
/// # Errors
///
/// Returns a user-facing message listing the valid names.
pub fn parse_dataset(name: &str) -> Result<Dataset, String> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown dataset '{name}' (try: {})",
                Dataset::ALL.map(|d| d.name()).join(", ")
            )
        })
}

/// Resolves a system by its paper name, case-insensitively.
///
/// # Errors
///
/// Returns a user-facing message listing the valid names.
pub fn parse_system(name: &str) -> Result<System, String> {
    System::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown system '{name}' (try: {})",
                System::ALL.map(|s| s.name()).join(", ")
            )
        })
}

/// Parses an optional positional micro-batch argument (default 64).
///
/// # Errors
///
/// Returns a user-facing message for non-numeric or zero values.
pub fn parse_micro_batch(arg: Option<&str>) -> Result<usize, String> {
    match arg {
        None => Ok(64),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("invalid micro-batch '{v}'"))
            .and_then(|b| {
                if b == 0 {
                    Err("micro-batch must be positive".into())
                } else {
                    Ok(b)
                }
            }),
    }
}

/// Parses an optional listen address for `gopim serve` (default
/// `127.0.0.1:4857`; `:0` picks an ephemeral port). Accepts `host:port`
/// or a bare port.
///
/// # Errors
///
/// Returns a user-facing message for unparsable addresses.
pub fn parse_serve_addr(arg: Option<&str>) -> Result<String, String> {
    match arg {
        None | Some("") => Ok("127.0.0.1:4857".to_string()),
        Some(v) if v.chars().all(|c| c.is_ascii_digit()) => Ok(format!("127.0.0.1:{v}")),
        Some(v) => {
            use std::net::ToSocketAddrs;
            // Validate eagerly so a typo fails with a parse error here
            // instead of a bind error later.
            v.to_socket_addrs()
                .map_err(|e| format!("invalid listen address '{v}': {e}"))?;
            Ok(v.to_string())
        }
    }
}

/// The fault campaign's configuration: the `GOPIM_FAULT_SEED` and
/// `GOPIM_FAULT_RATES` knobs over [`CampaignConfig::default`]. Both
/// front ends, `gopim faults` and the `faults` binary, start here.
///
/// # Errors
///
/// Returns a user-facing message for a malformed seed or rate list —
/// these knobs select what is computed, so they never fall back.
pub fn campaign_config(env: &Env) -> Result<CampaignConfig, String> {
    let default = CampaignConfig::default();
    let seed = match env.fault_seed.as_deref() {
        None => default.seed,
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid GOPIM_FAULT_SEED '{v}'"))?,
    };
    let fault_rates = match env.fault_rates.as_deref() {
        None => default.fault_rates.clone(),
        Some(v) => v
            .split(',')
            .map(parse_fault_rate)
            .collect::<Result<_, _>>()?,
    };
    Ok(CampaignConfig {
        seed,
        fault_rates,
        ..default
    })
}

/// Parses one `GOPIM_FAULT_RATES` entry: a stuck-at rate in `[0, 1]`.
fn parse_fault_rate(part: &str) -> Result<f64, String> {
    let part = part.trim();
    let rate: f64 = part
        .parse()
        .map_err(|_| format!("invalid fault rate '{part}' in GOPIM_FAULT_RATES"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault rate {rate} outside [0, 1]"));
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_parse_case_insensitively() {
        assert_eq!(parse_dataset("DDI").unwrap(), Dataset::Ddi);
        assert_eq!(parse_dataset("cora").unwrap(), Dataset::Cora);
        assert!(parse_dataset("imdb")
            .unwrap_err()
            .contains("unknown dataset"));
    }

    #[test]
    fn systems_parse_by_paper_names() {
        assert_eq!(parse_system("gopim").unwrap(), System::Gopim);
        assert_eq!(parse_system("slimgnn-like").unwrap(), System::SlimGnnLike);
        assert_eq!(parse_system("REFLIP").unwrap(), System::ReFlip);
        assert!(parse_system("tpu").is_err());
    }

    fn campaign(pairs: &[(&str, &str)]) -> Result<CampaignConfig, String> {
        campaign_config(&Env::from_vars(pairs.to_vec()))
    }

    #[test]
    fn fault_seed_defaults_and_validates() {
        let seed = |value| campaign(&[("GOPIM_FAULT_SEED", value)]).map(|c| c.seed);
        assert_eq!(campaign(&[]).unwrap().seed, CampaignConfig::default().seed);
        assert_eq!(seed(""), Ok(CampaignConfig::default().seed));
        assert_eq!(seed("42"), Ok(42));
        assert!(seed("many").unwrap_err().contains("GOPIM_FAULT_SEED"));
    }

    #[test]
    fn fault_rates_parse_comma_lists() {
        let rates = |value| campaign(&[("GOPIM_FAULT_RATES", value)]).map(|c| c.fault_rates);
        assert_eq!(
            campaign(&[]).unwrap().fault_rates,
            CampaignConfig::default().fault_rates
        );
        assert_eq!(rates("0, 0.1 ,0.5"), Ok(vec![0.0, 0.1, 0.5]));
        for malformed in ["0.1,huge", "1.5", ","] {
            assert!(rates(malformed).is_err(), "{malformed:?}");
        }
    }

    #[test]
    fn serve_addr_defaults_and_accepts_bare_ports() {
        assert_eq!(parse_serve_addr(None).unwrap(), "127.0.0.1:4857");
        assert_eq!(parse_serve_addr(Some("9000")).unwrap(), "127.0.0.1:9000");
        assert_eq!(parse_serve_addr(Some("0.0.0.0:80")).unwrap(), "0.0.0.0:80");
        assert!(parse_serve_addr(Some("not an address")).is_err());
    }

    #[test]
    fn micro_batch_defaults_and_validates() {
        assert_eq!(parse_micro_batch(None).unwrap(), 64);
        assert_eq!(parse_micro_batch(Some("128")).unwrap(), 128);
        assert!(parse_micro_batch(Some("0")).is_err());
        assert!(parse_micro_batch(Some("lots")).is_err());
    }
}

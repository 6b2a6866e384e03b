//! Provenance stamp, latency statistics and process memory.

use std::fmt::Write as _;

/// Where and how a result was produced. A run is invalid when an
/// `MBU_*` knob is set (each one changes the program measured) or debug
/// assertions are on (they run the verifier inside `compile()`).
pub struct Provenance {
    git_sha: String,
    cpu_model: String,
    nproc: usize,
    profile: &'static str,
    opt_level: &'static str,
    debug_assertions: bool,
    knobs: Vec<(String, String)>,
}

impl Provenance {
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let mut knobs: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| {
                let k = k.into_string().ok()?;
                k.starts_with("MBU_")
                    .then(|| (k, v.to_string_lossy().into_owned()))
            })
            .collect();
        knobs.sort();
        Self {
            git_sha: git_sha().unwrap_or_else(|| "unknown".to_string()),
            cpu_model,
            nproc,
            profile: env!("PERFBENCH_PROFILE"),
            opt_level: env!("PERFBENCH_OPT_LEVEL"),
            debug_assertions: cfg!(debug_assertions),
            knobs,
        }
    }

    /// Why the run does not measure the default program, if it does not.
    pub fn invalid_reasons(&self) -> Vec<String> {
        let mut why: Vec<String> = self
            .knobs
            .iter()
            .map(|(k, v)| format!("{k}={v} is set"))
            .collect();
        if self.debug_assertions {
            why.push("debug assertions are on".to_string());
        }
        why
    }

    pub fn json(&self) -> String {
        let knobs = self
            .knobs
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"git_sha\": {}, \"cpu_model\": {}, \"nproc\": {}, \"available_parallelism\": {}, \
             \"profile\": {}, \"opt_level\": {}, \"debug_assertions\": {}, \"mbu_env\": {{{knobs}}}, \
             \"valid\": {}}}",
            quote(&self.git_sha),
            quote(&self.cpu_model),
            self.nproc,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            quote(self.profile),
            quote(self.opt_level),
            self.debug_assertions,
            self.invalid_reasons().is_empty(),
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly; `None` outside a git checkout.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolating linearly between ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The `q` quantile of the latency of each kind of job in a mix of
/// `cycle` kinds, where job `i` is of kind `i % cycle`.
pub fn kind_quantiles(latencies: &[f64], cycle: usize, q: f64) -> Vec<f64> {
    (0..cycle.min(latencies.len()))
        .map(|k| {
            let kind: Vec<f64> = latencies.iter().skip(k).step_by(cycle).copied().collect();
            quantile(&kind, q)
        })
        .collect()
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its nearest-rank value. Fewer than 20 samples fall back to p50.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (50, f64::NAN);
    }
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let p = (50..=99).rev().find(|&p| n - rank(p) >= 10).unwrap_or(50);
    (p, v[rank(p) - 1])
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=340).map(f64::from).collect();
        assert_eq!(tail(&v), (97, 330.0));
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(tail(&v), (77, 34.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.375), 2.5);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn kind_quantiles_take_every_cycle_th_job() {
        let v = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0];
        assert_eq!(kind_quantiles(&v, 2, 0.5), vec![2.0, 20.0]);
        assert_eq!(kind_quantiles(&v, 2, 0.25), vec![1.5, 15.0]);
        assert_eq!(kind_quantiles(&v, 1, 0.5), vec![6.5]);
        assert!(kind_quantiles(&[], 3, 0.5).is_empty());
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn debug_builds_are_marked_invalid() {
        let p = Provenance::collect();
        assert_eq!(
            p.invalid_reasons().iter().any(|r| r.contains("debug")),
            cfg!(debug_assertions)
        );
        assert!(p.json().contains("\"valid\": "));
    }
}

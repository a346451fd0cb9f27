//! Getting reports *into* the engine: parse the `/hhh` ndjson wire
//! format back into [`WindowReport`]s.

use hhh_core::snapshot::json::Json;
use hhh_core::HhhReport;
use hhh_nettypes::{Ipv4Prefix, Nanos};
use hhh_window::WindowReport;

/// Parse `/hhh` (or `hhh-agg`) ndjson report lines into full
/// [`WindowReport`]s, in window order. Only series 0, the first
/// threshold's report, is kept (a line without `series` is series 0),
/// so each window appears once however many thresholds the daemon
/// renders. Non-`report` lines (state snapshots) are skipped. The wire
/// format carries no lower bound, so `lower_bound` is set to
/// `discounted` (they coincide for the deterministic detectors anyway).
pub fn parse_policy_windows(body: &str) -> Result<Vec<WindowReport<Ipv4Prefix>>, String> {
    let mut out = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("bad report line: {e}: {line}"))?;
        if v.get("type").and_then(Json::as_str) != Some("report")
            || v.get("series").and_then(Json::as_u64).unwrap_or(0) != 0
        {
            continue;
        }
        let field = |name: &str| {
            v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing {name}: {line}"))
        };
        let index = field("index")?;
        let start = Nanos::from_nanos(field("start_ns")?);
        let end = Nanos::from_nanos(field("end_ns")?);
        let total = field("total")?;
        let mut hhhs = Vec::new();
        if let Some(entries) = v.get("hhhs").and_then(Json::as_arr) {
            for h in entries {
                let text = h
                    .get("prefix")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("hhh entry without prefix: {line}"))?;
                let prefix: Ipv4Prefix =
                    text.parse().map_err(|e| format!("bad prefix {text:?}: {e}"))?;
                let level = h.get("level").and_then(Json::as_u64).unwrap_or(prefix.len() as u64);
                let estimate = h
                    .get("estimate")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("hhh entry without estimate: {line}"))?;
                let discounted = h.get("discounted").and_then(Json::as_u64).unwrap_or(estimate);
                hhhs.push(HhhReport {
                    prefix,
                    level: level as usize,
                    estimate,
                    discounted,
                    lower_bound: discounted,
                });
            }
        }
        out.push(WindowReport { index, start, end, total, hhhs });
    }
    out.sort_by_key(|w| (w.start, w.index));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_lines_and_skips_states() {
        let body = concat!(
            "{\"type\":\"report\",\"series\":0,\"index\":1,\"start_ns\":5000000000,",
            "\"end_ns\":10000000000,\"total\":1000,\"hhhs\":[",
            "{\"prefix\":\"38.2.0.0/16\",\"level\":2,\"estimate\":300,\"discounted\":280}]}\n",
            "{\"type\":\"state\",\"at_ns\":10000000000}\n",
            "{\"type\":\"report\",\"series\":0,\"index\":0,\"start_ns\":0,",
            "\"end_ns\":5000000000,\"total\":900,\"hhhs\":[]}\n",
        );
        let windows = parse_policy_windows(body).expect("parses");
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0, "sorted by start");
        assert_eq!(windows[1].total, 1000);
        let hhh = &windows[1].hhhs[0];
        assert_eq!(hhh.prefix, Ipv4Prefix::new(u32::from_be_bytes([38, 2, 0, 0]), 16));
        assert_eq!(hhh.estimate, 300);
        assert_eq!(hhh.discounted, 280);
        assert_eq!(hhh.lower_bound, 280);
    }

    #[test]
    fn keeps_only_series_zero() {
        let line = |series: u64, index: u64, prefix: &str| {
            format!(
                "{{\"type\":\"report\",\"series\":{series},\"index\":{index},\
                 \"start_ns\":{},\"end_ns\":{},\"total\":1000,\"hhhs\":[\
                 {{\"prefix\":\"{prefix}\",\"estimate\":300}}]}}\n",
                index * 5_000_000_000,
                (index + 1) * 5_000_000_000,
            )
        };
        let body: String =
            (0..2).flat_map(|i| [line(0, i, "38.2.0.0/16"), line(1, i, "38.0.0.0/8")]).collect();
        let windows = parse_policy_windows(&body).expect("parses");
        assert_eq!(windows.len(), 2, "one window per index, not one per series");
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            let prefixes: Vec<String> = w.hhhs.iter().map(|h| h.prefix.to_string()).collect();
            assert_eq!(prefixes, ["38.2.0.0/16"], "window {i} carries series 0's HHHs");
        }
    }

    #[test]
    fn garbage_line_is_an_error() {
        assert!(parse_policy_windows("{\"type\":\"report\"").is_err());
        assert!(parse_policy_windows(
            "{\"type\":\"report\",\"index\":0,\"start_ns\":0,\"end_ns\":1,\"total\":1,\
             \"hhhs\":[{\"prefix\":\"not-a-prefix\",\"estimate\":1}]}"
        )
        .is_err());
    }
}

//! Reading numbers out of a `GET /metrics` scrape (Prometheus text format).

/// The sum of every sample of family `name` — the single value of an unlabeled
/// family, or the total over all label sets of a labeled one. `None` when the
/// scrape has no sample of the family. Comment lines and families whose name
/// merely starts with `name` are ignored.
pub fn family_total(text: &str, name: &str) -> Option<f64> {
    let mut total = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let value = if let Some(labeled) = rest.strip_prefix('{') {
            labeled.split_once('}').map(|(_, v)| v)
        } else if rest.starts_with(' ') {
            Some(rest)
        } else {
            None
        };
        if let Some(v) = value.and_then(|v| v.trim().parse::<f64>().ok()) {
            *total.get_or_insert(0.0) += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
# HELP service_worker_busy_microseconds_total Wall clock workers spent executing slices.
# TYPE service_worker_busy_microseconds_total counter
service_worker_busy_microseconds_total 1234567
# TYPE service_slices_total counter
service_slices_total{tenant=\"t1\"} 40
service_slices_total{tenant=\"t2\"} 2
# TYPE service_slices_total_extra counter
service_slices_total_extra 99
";

    #[test]
    fn reads_an_unlabeled_counter() {
        assert_eq!(
            family_total(SCRAPE, "service_worker_busy_microseconds_total"),
            Some(1_234_567.0)
        );
    }

    #[test]
    fn sums_a_labeled_family_and_ignores_longer_names() {
        assert_eq!(family_total(SCRAPE, "service_slices_total"), Some(42.0));
    }

    #[test]
    fn a_missing_family_is_none() {
        assert_eq!(family_total(SCRAPE, "service_jobs_done_total"), None);
        assert_eq!(family_total("", "service_slices_total"), None);
    }
}

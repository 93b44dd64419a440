//! What the gated sections of `paper` and `ablations` share: how a timing
//! is written into a report row, how a gate reads a row back, and the one
//! statistical test the timing gates use.
//!
//! A gate there is a pure function of the rows *as they are written to the
//! file* — `fn(&[Json]) -> Verdict` — so it can be unit-tested on
//! hand-built rows and re-evaluated by anyone from the tracked report.
//! Timing claims use the CI-separation form of EXPERIMENTS E26: "a is no
//! slower than b" fails only when a's whole 95 % interval sits above b's
//! ([`Timing::above`]), i.e. when the measurement *contradicts* the claim.
//! Two medians of one kernel differ by up to 10 % on a shared host; a
//! five-round smoke run must not turn that into a red gate.

use crate::Report;
use deep500::metrics::stats::Summary;
use deep500::metrics::Json;

/// A gate's outcome: its name in the report, whether the claim holds, and
/// the measured values that say so.
#[derive(Debug)]
pub struct Verdict {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Verdict {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Verdict {
        Verdict { name, ok, detail }
    }

    /// The same verdict with `more` measured values appended to its detail.
    pub fn with(mut self, more: impl std::fmt::Display) -> Verdict {
        self.detail = format!("{}; {more}", self.detail);
        self
    }
}

/// Record each verdict as a gate of `report`.
pub fn claims(report: &mut Report, verdicts: impl IntoIterator<Item = Verdict>) {
    for v in verdicts {
        report.gate(v.name, v.ok, v.detail);
    }
}

/// The verdict of a claim that holds unless something contradicts it.
pub fn unless(name: &'static str, claim: &str, contradictions: Vec<String>) -> Verdict {
    let detail = format!("{claim}; contradicted by: {contradictions:?}");
    Verdict::new(name, contradictions.is_empty(), detail)
}

/// The verdict of the claim that in every labelled pair the first timing
/// is no slower than the second: contradicted by each pair whose first
/// sits [`Timing::above`] its second.
pub fn no_slower(
    name: &'static str,
    claim: &str,
    pairs: impl IntoIterator<Item = (String, Timing, Timing)>,
) -> Verdict {
    let separated = pairs.into_iter().filter(|(_, a, b)| a.above(b));
    let against = separated.map(|(label, a, b)| {
        format!(
            "{label}: [{:.3}, {:.3}] above [{:.3}, {:.3}] ms",
            a.lo, a.hi, b.lo, b.hi
        )
    });
    unless(name, claim, against.collect())
}

/// A timing as rows carry it: the median and the 95 % CI of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub ms: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Timing {
    /// `s` (seconds) in milliseconds.
    pub fn of(s: &Summary) -> Timing {
        Timing {
            ms: s.median * 1e3,
            lo: s.median_ci.lo * 1e3,
            hi: s.median_ci.hi * 1e3,
        }
    }

    /// `{"ms", "lo", "hi"}`, to the nanosecond.
    pub fn json(&self) -> Json {
        Json::obj([
            ("ms", Json::fixed(self.ms, 6)),
            ("lo", Json::fixed(self.lo, 6)),
            ("hi", Json::fixed(self.hi, 6)),
        ])
    }

    /// The timing written under `row[key]`.
    pub fn read(row: &Json, key: &str) -> Timing {
        let cell = field(row, key);
        Timing {
            ms: num(cell, "ms"),
            lo: num(cell, "lo"),
            hi: num(cell, "hi"),
        }
    }

    /// The timing under `row[key]`, `None` where the row says `null`
    /// (the cell did not run).
    pub fn read_opt(row: &Json, key: &str) -> Option<Timing> {
        (*field(row, key) != Json::Null).then(|| Timing::read(row, key))
    }

    /// The same timing with `ms` added to the median and both bounds (a
    /// modeled cost on top of a measured one).
    pub fn plus(self, ms: f64) -> Timing {
        Timing {
            ms: self.ms + ms,
            lo: self.lo + ms,
            hi: self.hi + ms,
        }
    }

    /// The same timing scaled by `factor` (one of `n` equal parts is
    /// `times(1.0 / n)`).
    pub fn times(self, factor: f64) -> Timing {
        Timing {
            ms: self.ms * factor,
            lo: self.lo * factor,
            hi: self.hi * factor,
        }
    }

    /// Measurably slower than `other`: the whole interval sits above
    /// `other`'s.
    pub fn above(&self, other: &Timing) -> bool {
        self.lo > other.hi
    }
}

/// `row[key]`; a gate reading a column its section never wrote is a bug
/// in this crate.
pub fn field<'a>(row: &'a Json, key: &str) -> &'a Json {
    row.get(key)
        .unwrap_or_else(|| panic!("row has no '{key}': {}", row.render()))
}

/// The number under `row[key]`.
pub fn num(row: &Json, key: &str) -> f64 {
    field(row, key)
        .as_f64()
        .unwrap_or_else(|| panic!("'{key}' is not a number: {}", row.render()))
}

/// The string under `row[key]`.
pub fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    field(row, key)
        .as_str()
        .unwrap_or_else(|| panic!("'{key}' is not a string: {}", row.render()))
}

/// The rows whose `key` column reads `value`.
pub fn select<'a>(
    rows: &'a [Json],
    key: &'a str,
    value: &'a str,
) -> impl Iterator<Item = &'a Json> {
    rows.iter().filter(move |row| text(row, key) == value)
}

/// The first row whose `key` column reads `value`.
pub fn find<'a>(rows: &'a [Json], key: &'a str, value: &'a str) -> &'a Json {
    select(rows, key, value)
        .next()
        .unwrap_or_else(|| panic!("no row with {key} = {value}"))
}

/// A hand-built `[lo, hi]` interval for the gates' unit tests.
#[cfg(test)]
pub type Span = (f64, f64);

/// The row cell of a timing whose CI is `span` and whose median is its
/// midpoint.
#[cfg(test)]
pub fn interval((lo, hi): Span) -> Json {
    let ms = (lo + hi) / 2.0;
    Timing { ms, lo, hi }.json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timing_survives_the_row_and_separation_is_strict() {
        let slow = Timing::of(&Summary::of(&[0.0030, 0.0031, 0.0032]));
        assert!((slow.ms - 3.1).abs() < 1e-9 && slow.lo <= slow.ms && slow.ms <= slow.hi);
        let slow = Timing {
            ms: 3.1,
            lo: 3.0,
            hi: 3.2,
        };
        let row = Json::obj([("who", Json::from("slow")), ("t", slow.json())]);
        assert_eq!(Timing::read(&row, "t"), slow);
        assert_eq!(text(find(&[row], "who", "slow"), "who"), "slow");

        let fast = Timing {
            ms: 1.0,
            lo: 0.9,
            hi: slow.lo,
        };
        // Touching intervals do not contradict "slow is no slower than fast".
        assert!(!slow.above(&fast) && !fast.above(&slow));
        let faster = Timing { hi: 2.9, ..fast };
        assert!(slow.above(&faster) && !faster.above(&slow));
    }
}

//! The one row schema of every tracked `BENCH_<name>.json`, and what the
//! gates read it with.
//!
//! A [`Row`] is one number: its `table` (e.g. `cases`, `results`,
//! `fig6_operators`), its key columns (strings or integers — model,
//! shape, tier, policy …), one `metric` with its `unit`, which direction
//! is `better` (`lower`, `higher`, or `none` for a descriptive share or an
//! exact count), and `{median, lo, hi, n}`. A timed quantity carries the
//! median, the 95 % CI of the median and the sample count of the
//! [`Summary`] the timing loop returned; a single observation (a count, a
//! simulated value, an accuracy, one load run's percentile) has `n = 1`
//! and no interval. `(table, keys, metric)` is unique within a file: it is
//! what a row is matched on across runs. A value that is a ratio or sum
//! of other rows of the same file is not a row; the gate that needs it
//! computes it and quotes it in its detail.
//!
//! A gate is a pure function of the rows *as they are parsed back from
//! the file* — `fn(&[Row]) -> Verdict` — so it can be unit-tested on
//! hand-built rows and re-evaluated by anyone from the tracked report. A
//! non-finite value (a NaN kernel error, a rate over a zero time) is kept:
//! the file spells it as a string, and every gate that reads it is red
//! ([`verdict_of`]).
//! Timing claims use the CI-separation form of EXPERIMENTS E26: "a is no
//! slower than b" fails only when a's whole 95 % interval sits above b's
//! ([`Interval::above`]), i.e. when the measurement *contradicts* the
//! claim. Two medians of one kernel differ by up to 10 % on a shared host;
//! a five-round smoke run must not turn that into a red gate.

use deep500::metrics::stats::Summary;
use deep500::metrics::Json;
use std::fmt;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Better {
    Lower,
    Higher,
    /// A descriptive share or an exact count: no direction.
    #[default]
    None,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::None => "none",
        }
    }
}

/// One number of a report: see the module header.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    pub table: String,
    /// The key columns, in order; each value a JSON string or integer.
    pub keys: Vec<(String, Json)>,
    pub metric: String,
    pub unit: String,
    pub better: Better,
    pub median: f64,
    /// The 95 % CI of the median; `None` for a single observation.
    pub ci: Option<(f64, f64)>,
    pub n: usize,
}

/// A row's value as an interval: its CI, or the value itself where there
/// is none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub median: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// The interval with `f` applied to the median and both bounds (a
    /// modeled cost added to a measured one, a tolerance factor).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Interval {
        let [median, lo, hi] = [self.median, self.lo, self.hi].map(f);
        Interval { median, lo, hi }
    }

    /// Measurably above `other`: the whole interval sits above `other`'s.
    pub fn above(&self, other: &Interval) -> bool {
        self.lo > other.hi
    }
}

/// `[lo, hi]`, both at the formatter's precision (3 places by default).
impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let places = f.precision().unwrap_or(3);
        write!(f, "[{:.places$}, {:.places$}]", self.lo, self.hi)
    }
}

impl Row {
    /// A row of `table` with no key columns and no value yet: the
    /// prototype the value constructors below copy.
    pub fn of(table: &str) -> Row {
        let table = table.to_string();
        Row {
            table,
            ..Row::default()
        }
    }

    /// The same row with one more key column.
    pub fn key(mut self, name: &str, value: impl Into<Json>) -> Row {
        self.keys.push((name.to_string(), value.into()));
        self
    }

    /// A copy of this row's table and keys holding `metric`.
    pub fn measured(
        &self,
        metric: &str,
        unit: &str,
        better: Better,
        median: f64,
        ci: Option<(f64, f64)>,
        n: usize,
    ) -> Row {
        Row {
            metric: metric.to_string(),
            unit: unit.to_string(),
            better,
            median,
            ci,
            n,
            ..self.clone()
        }
    }

    /// A timed quantity: `s` (seconds per sample) in milliseconds per
    /// call, a sample being `calls` calls.
    pub fn ms_per(&self, metric: &str, s: &Summary, calls: usize) -> Row {
        let ms = |v: f64| v * 1e3 / calls as f64;
        let ci = Some((ms(s.median_ci.lo), ms(s.median_ci.hi)));
        self.measured(metric, "ms", Better::Lower, ms(s.median), ci, s.n)
    }

    /// A timed quantity: `s` (seconds) in milliseconds.
    pub fn ms(&self, metric: &str, s: &Summary) -> Row {
        self.ms_per(metric, s, 1)
    }

    /// A rate: `work` units per timed call of `s` (seconds), its interval
    /// mapped through `work / t`.
    pub fn rate(&self, metric: &str, unit: &str, work: f64, s: &Summary) -> Row {
        let ci = Some((work / s.median_ci.hi, work / s.median_ci.lo));
        self.measured(metric, unit, Better::Higher, work / s.median, ci, s.n)
    }

    /// A single observation.
    pub fn value(&self, metric: &str, unit: &str, better: Better, v: f64) -> Row {
        self.measured(metric, unit, better, v, None, 1)
    }

    /// An exact count.
    pub fn count(&self, metric: &str, better: Better, v: usize) -> Row {
        self.value(metric, "count", better, v as f64)
    }

    /// An exact size in bytes.
    pub fn bytes(&self, metric: &str, better: Better, v: usize) -> Row {
        self.value(metric, "bytes", better, v as f64)
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.keys.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The text key column `name`, if the row has it.
    pub fn try_text(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Json::as_str)
    }

    /// The text key column `name`; a gate reading a column its entry never
    /// wrote is a bug in this crate.
    pub fn text(&self, name: &str) -> &str {
        let text = self.try_text(name);
        text.unwrap_or_else(|| panic!("{} {}: no text key '{name}'", self.table, self.metric))
    }

    /// The integer key column `name`.
    pub fn int(&self, name: &str) -> i64 {
        let int = self.get(name).and_then(Json::as_f64);
        int.unwrap_or_else(|| panic!("{} {}: no integer key '{name}'", self.table, self.metric))
            as i64
    }

    /// Whether the key column `name` reads `value`.
    pub fn is(&self, name: &str, value: &str) -> bool {
        self.get(name).is_some_and(|k| shown(k) == value)
    }

    /// The key values, space-separated: the row's name in a gate detail.
    pub fn label(&self) -> String {
        let values: Vec<String> = self.keys.iter().map(|(_, v)| shown(v)).collect();
        values.join(" ")
    }

    /// Whether the median and both bounds are finite.
    fn finite(&self) -> bool {
        let (lo, hi) = self.ci.unwrap_or((self.median, self.median));
        [self.median, lo, hi].iter().all(|v| v.is_finite())
    }

    /// The value as an interval.
    pub fn interval(&self) -> Interval {
        let (median, (lo, hi)) = (self.median, self.ci.unwrap_or((self.median, self.median)));
        Interval { median, lo, hi }
    }

    /// The row of `rows` with this row's table and keys that holds
    /// `metric`, if there is one.
    pub fn try_sibling<'a>(&self, rows: &'a [Row], metric: &str) -> Option<&'a Row> {
        rows.iter()
            .find(|r| r.table == self.table && r.keys == self.keys && r.metric == metric)
    }

    /// The row of `rows` with this row's table and keys that holds `metric`.
    pub fn sibling<'a>(&self, rows: &'a [Row], metric: &str) -> &'a Row {
        self.try_sibling(rows, metric)
            .unwrap_or_else(|| panic!("{} [{}]: no '{metric}' row", self.table, self.label()))
    }

    /// The median of [`Self::sibling`] `metric`.
    pub fn median_of(&self, rows: &[Row], metric: &str) -> f64 {
        self.sibling(rows, metric).median
    }

    /// The row as its one line of the file.
    pub(crate) fn json(&self) -> Json {
        let keys = self.keys.iter().map(|(k, v)| (k.as_str(), v.clone()));
        let bound = |b: Option<f64>| b.map_or(Json::Null, spelled);
        Json::obj([
            ("table", Json::from(self.table.as_str())),
            ("keys", Json::obj(keys)),
            ("metric", Json::from(self.metric.as_str())),
            ("unit", Json::from(self.unit.as_str())),
            ("better", Json::from(self.better.label())),
            ("median", spelled(self.median)),
            ("lo", bound(self.ci.map(|c| c.0))),
            ("hi", bound(self.ci.map(|c| c.1))),
            ("n", Json::from(self.n)),
        ])
    }

    /// Parse one line of the file. A line is a row iff it is the line the
    /// row it reads as renders to — every reserved field present, in
    /// order and typed; `better` one of three words; key values strings or
    /// integers — and `n >= 1` and `lo <= median <= hi` where there is an
    /// interval and no NaN.
    pub(crate) fn parse(json: &Json) -> Result<Row, String> {
        let text = |k| {
            json.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let num = |k| json.get(k).map_or(f64::NAN, read);
        let keys = json
            .get("keys")
            .and_then(Json::as_object)
            .unwrap_or_default();
        let int = |v: &Json| v.as_f64().is_some_and(|i| i.fract() == 0.0);
        let better = [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.label() == text("better"));
        let row = Row {
            table: text("table"),
            keys: keys.to_vec(),
            metric: text("metric"),
            unit: text("unit"),
            better: better.unwrap_or_default(),
            median: num("median"),
            ci: (json.get("lo") != Some(&Json::Null)).then(|| (num("lo"), num("hi"))),
            n: num("n") as usize,
        };
        let (lo, hi) = row.ci.unwrap_or((row.median, row.median));
        let typed = keys.iter().all(|(_, v)| v.as_str().is_some() || int(v));
        let nan = [lo, row.median, hi].iter().any(|v| v.is_nan());
        let ordered = nan || (lo <= row.median && row.median <= hi);
        if !typed || row.json() != *json || row.n < 1 || !ordered {
            return Err(format!("not a row: {}", json.render()));
        }
        Ok(row)
    }
}

/// A value as the file spells it: a number, or — JSON having no spelling
/// for the others — a non-finite one as the string Rust prints it as
/// (`"NaN"`, `"inf"`, `"-inf"`), which [`read`] parses back.
fn spelled(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::from(v.to_string())
    }
}

/// The value [`spelled`] wrote; NaN for anything else, which the row's
/// round trip then refuses.
fn read(j: &Json) -> f64 {
    let text = || j.as_str().and_then(|s| s.parse().ok());
    j.as_f64().or_else(text).unwrap_or(f64::NAN)
}

/// A key value as a gate detail shows it: a string bare, an integer as
/// written.
fn shown(v: &Json) -> String {
    v.as_str().map_or_else(|| v.render(), String::from)
}

/// The rows of `table` that hold `metric`, in file order.
pub fn select<'a>(
    rows: &'a [Row],
    table: &'a str,
    metric: &'a str,
) -> impl Iterator<Item = &'a Row> + 'a {
    rows.iter()
        .filter(move |r| r.table == table && r.metric == metric)
}

/// The first row of `table` holding `metric` whose key `name` reads `value`.
pub fn find<'a>(
    rows: &'a [Row],
    table: &str,
    metric: &str,
    (name, value): (&str, &str),
) -> &'a Row {
    rows.iter()
        .find(|r| r.table == table && r.metric == metric && r.is(name, value))
        .unwrap_or_else(|| panic!("{table}: no '{metric}' row with {name} = {value}"))
}

/// A gate's outcome: its name in the report, whether the claim holds, and
/// the measured values that say so.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Verdict {
    pub fn new(name: &str, ok: bool, detail: String) -> Verdict {
        Verdict {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    /// The same verdict with `more` measured values appended to its detail.
    pub fn with(mut self, more: impl fmt::Display) -> Verdict {
        self.detail = format!("{}; {more}", self.detail);
        self
    }
}

/// A gate: a claim about the rows of one report.
pub type Gate = fn(&[Row]) -> Verdict;

/// `gate`'s verdict on `rows`, red if it reads a non-finite value. A NaN
/// fails a `<=` bound by itself but passes every `>` — "a sits above b" is
/// never contradicted by one — so this is not left to each gate's
/// comparisons: a gate whose verdict moves when the non-finite values are
/// replaced by finite stand-ins (`0`, `±1e300`) reads one of them.
pub(crate) fn verdict_of(gate: Gate, rows: &[Row]) -> Verdict {
    let verdict = gate(rows);
    let odd: Vec<&Row> = rows.iter().filter(|r| !r.finite()).collect();
    if odd.is_empty() {
        return verdict;
    }
    let stand_in = |x: f64| -> Vec<Row> {
        let fill = |r: &Row| {
            let mut r = r.clone();
            if !r.finite() {
                (r.median, r.ci) = (x, r.ci.map(|_| (x, x)));
            }
            r
        };
        rows.iter().map(fill).collect()
    };
    if [0.0, 1e300, -1e300]
        .iter()
        .all(|&x| gate(&stand_in(x)) == verdict)
    {
        return verdict;
    }
    let names: Vec<String> = odd
        .iter()
        .map(|r| format!("{} [{}] {}", r.table, r.label(), r.metric))
        .collect();
    Verdict {
        ok: false,
        ..verdict
    }
    .with(format!("reads non-finite {names:?}"))
}

/// The verdict of a claim that holds unless something contradicts it.
pub fn unless(name: &str, claim: &str, contradictions: Vec<String>) -> Verdict {
    let detail = format!("{claim}; contradicted by: {contradictions:?}");
    Verdict::new(name, contradictions.is_empty(), detail)
}

/// The verdict of the claim that in every labelled pair the first value
/// is no slower than the second: contradicted by each pair whose first
/// sits [`Interval::above`] its second.
pub fn no_slower(
    name: &str,
    claim: &str,
    pairs: impl IntoIterator<Item = (String, Interval, Interval)>,
) -> Verdict {
    let separated = pairs.into_iter().filter(|(_, a, b)| a.above(b));
    let against = separated.map(|(label, a, b)| format!("{label}: {a} above {b} ms"));
    unless(name, claim, against.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timing_survives_the_row_and_separation_is_strict() {
        let s = Summary::of(&[0.0030, 0.0031, 0.0032]);
        let slow = Row::of("t").key("who", "slow").ms("pass", &s);
        assert_eq!(
            (slow.unit.as_str(), slow.better, slow.n),
            ("ms", Better::Lower, 3)
        );
        let t = slow.interval();
        assert!((t.median - 3.1).abs() < 1e-9 && t.lo <= t.median && t.median <= t.hi);
        let rate = Row::of("t").rate("gflops", "GFLOP/s", 6.2, &s);
        let r = rate.interval();
        assert!(r.lo <= r.median && r.median <= r.hi && (r.median - 2e3).abs() < 1e-6);

        let span = |lo: f64, hi: f64| Interval {
            median: (lo + hi) / 2.0,
            lo,
            hi,
        };
        let (slow, fast) = (span(3.0, 3.2), span(0.9, 3.0));
        // Touching intervals do not contradict "slow is no slower than fast".
        assert!(!slow.above(&fast) && !fast.above(&slow));
        let faster = span(0.9, 2.9);
        assert!(slow.above(&faster) && !faster.above(&slow));
    }

    #[test]
    fn a_row_survives_its_line_and_siblings_share_table_and_keys() {
        let cell = Row::of("cases").key("model", "lenet").key("batch", 32usize);
        let rows = [
            cell.ms("pass", &Summary::of(&[0.1 / 3.0, 0.2, 0.3])),
            cell.count("failed", Better::Lower, 0),
            cell.value("share", "ratio", Better::None, 0.1 + 0.2),
        ];
        for row in &rows {
            let line = Json::parse(&row.json().render()).unwrap();
            assert_eq!(&Row::parse(&line).unwrap(), row);
        }
        assert_eq!(rows[0].sibling(&rows, "failed"), &rows[1]);
        assert_eq!(rows[2].ci, None);
        assert_eq!((rows[0].text("model"), rows[0].int("batch")), ("lenet", 32));
        assert!(rows[0].is("batch", "32") && rows[0].label() == "lenet 32");
        assert_eq!(find(&rows, "cases", "share", ("model", "lenet")), &rows[2]);
    }

    #[test]
    fn a_malformed_row_is_refused() {
        let good = Row::of("t")
            .key("k", "a")
            .ms("m", &Summary::of(&[1.0, 2.0, 3.0]))
            .json();
        let edit = |field: &str, value: Json| {
            let mut row = good.clone();
            if let Json::Obj(fields) = &mut row {
                fields.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
            }
            Row::parse(&row)
        };
        assert!(Row::parse(&good).is_ok());
        assert!(edit("better", Json::from("faster")).is_err());
        assert!(edit("median", Json::Null).is_err());
        assert!(
            edit("lo", Json::from(2500.0)).is_err(),
            "lo above the median"
        );
        assert!(edit("n", Json::from(0usize)).is_err());
        assert!(edit("keys", Json::obj([("k", Json::from(0.5))])).is_err());
        assert!(Row::parse(&Json::obj([("table", Json::from("t"))])).is_err());
    }
}

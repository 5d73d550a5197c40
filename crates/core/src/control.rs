//! The control-file text protocol: one write is one [`Command`].
//!
//! Applications customize remote monitoring by writing plain text into
//! `/proc/cluster/<node>/control`. Each write is one command:
//!
//! ```text
//! period <metric|*> <seconds>      # update period
//! delta <metric|*> <fraction>      # differential filter (0.15 = 15%)
//! above <metric|*> <bound>         # threshold: send while value > bound
//! below <metric|*> <bound>         # threshold: send while value < bound
//! range <metric> <lo> <hi>         # threshold: send while lo <= v <= hi
//! and <rule> <metric> <args...>    # add one of the five rules above (AND)
//! clear <metric|*>                 # drop the metric's rules
//! window <metric> <seconds>        # module averaging window (CPU MON)
//! filter <e-code source...>        # deploy a dynamic filter (rest of write)
//! nofilter                         # remove the deployed filter
//! ```
//!
//! `period`/`delta`/`above`/`below`/`range` *replace* the metric's rules;
//! `and ...` adds to them, enabling the paper's "every 2 s IF above 80%"
//! combinations. A metric is named by its `/proc` file (`cpu`) or its
//! E-code constant (`LOADAVG`), and a name never holds a `:`.
//!
//! A command has two spellings, and this module is the only code that
//! knows either: the text above, which [`Command::parse`] reads, and the
//! [`ControlMsg`] a subscriber sends the publisher, which
//! [`Command::to_msg`] writes and [`Command::of`] reads. Three commands
//! have no message of their own and ride on `SetParam` as a prefix of the
//! metric name:
//!
//! | command | wire message |
//! |---|---|
//! | `<rule> <metric> …` | `SetParam { metric: "<metric>", param }` |
//! | `and <rule> <metric> …` | `SetParam { metric: "and:<metric>", param }` |
//! | `clear <metric>` | `SetParam { metric: "clear:<metric>", param: Period { period_s: 1.0 } }` (a placeholder `param`) |
//! | `window <metric> <s>` | `SetParam { metric: "window:<metric>", param: Period { period_s: <s> } }` |
//! | `filter <source>` | `DeployFilter { source }` |
//! | `nofilter` | `RemoveFilter` |
//!
//! Because a name cannot hold the `:` that ends a prefix, no name reads as
//! one, and `Command::of(&c.to_msg()) == Some(c)` for every parsed `c`.
//! Every number a command carries is finite, and every window one that
//! CPU MON can average over — at least a nanosecond once rounded and no
//! longer than the run-queue history the scheduler keeps
//! ([`simos::cpu::MAX_HISTORY`]): the text refuses anything else, and a
//! message that carries anything else reads as no command.
//!
//! The text of a message `to_msg` writes is taken from the running
//! thread's pool of control texts (`kecho::take_text`); whoever consumes
//! the message gives it back (`ControlMsg::recycle`).

use kecho::{ControlMsg, ParamSpec};
use simcore::SimDur;
use simos::cpu::MAX_HISTORY;

/// A parse failure, with the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlParseError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ControlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad control write: {}", self.message)
    }
}

impl std::error::Error for ControlParseError {}

fn err(message: impl Into<String>) -> ControlParseError {
    ControlParseError {
        message: message.into(),
    }
}

/// The wire prefixes of `and`, `clear` and `window` (module doc).
const AND: &str = "and:";
const CLEAR: &str = "clear:";
const WINDOW: &str = "window:";

/// One customization, as written to a control file or carried on the
/// wire; borrowed from whichever it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command<'a> {
    /// A parameter rule for `metric` (`*` = every metric): it replaces
    /// the metric's rules, or with `and` adds to them.
    Rule {
        /// Metric the rule gates.
        metric: &'a str,
        /// The rule.
        param: ParamSpec,
        /// `and`-combined rather than replacing.
        and: bool,
    },
    /// Drop the rules of `metric` (`*` = the wildcard rules).
    Clear { metric: &'a str },
    /// Set the averaging window of the module whose `/proc` file is
    /// `file` to `secs` seconds.
    Window { file: &'a str, secs: f64 },
    /// Put the stream under the E-code filter `source`.
    Filter { source: &'a str },
    /// Remove the deployed filter.
    NoFilter,
}

/// A finite number: `NaN` and the infinities parse as floats, but no rule
/// or window means anything by them.
fn parse_f64(s: &str, what: &str) -> Result<f64, ControlParseError> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(err(format!("{what} `{s}` is not a finite number"))),
    }
}

/// `secs` as a window, when CPU MON can average over it (module doc).
fn window(secs: f64) -> Result<f64, ControlParseError> {
    let span = SimDur::from_secs_f64(secs);
    if secs <= 0.0 {
        Err(err("window must be positive"))
    } else if span.is_zero() {
        Err(err(format!("window `{secs}` rounds to 0 ns")))
    } else if span > MAX_HISTORY {
        let kept = MAX_HISTORY.as_secs();
        Err(err(format!(
            "window `{secs}` exceeds the {kept} s of run-queue history kept"
        )))
    } else {
        Ok(secs)
    }
}

/// Whether every number `param` carries is finite, as every number a
/// control write can state is.
fn finite(param: ParamSpec) -> bool {
    match param {
        ParamSpec::Period { period_s: v }
        | ParamSpec::DeltaFraction { fraction: v }
        | ParamSpec::Above { bound: v }
        | ParamSpec::Below { bound: v } => v.is_finite(),
        ParamSpec::Range { lo, hi } => lo.is_finite() && hi.is_finite(),
    }
}

/// Exactly `N` whitespace-separated words of `s`.
fn words<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut it = s.split_whitespace();
    let mut out = [""; N];
    for slot in &mut out {
        *slot = it.next()?;
    }
    it.next().is_none().then_some(out)
}

/// `s` split at its first whitespace, the rest left-trimmed.
fn head(s: &str) -> (&str, &str) {
    match s.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim_start()),
        None => (s, ""),
    }
}

/// A metric name as written: never one that could read as a prefix.
fn name(s: &str) -> Result<&str, ControlParseError> {
    if s.contains(':') {
        return Err(err(format!("metric `{s}` must not contain `:`")));
    }
    Ok(s)
}

/// The spec of rule verb `verb` from its arguments.
fn parse_spec(verb: &str, args: &str) -> Result<ParamSpec, ControlParseError> {
    let usage = |u: &str| err(format!("usage: {verb} {u}"));
    match verb {
        "period" => {
            let [v] = words(args).ok_or_else(|| usage("<metric|*> <seconds>"))?;
            let period_s = parse_f64(v, "period")?;
            if period_s <= 0.0 {
                return Err(err("period must be positive"));
            }
            Ok(ParamSpec::Period { period_s })
        }
        "delta" => {
            let [v] = words(args).ok_or_else(|| usage("<metric|*> <fraction>"))?;
            let fraction = parse_f64(v, "fraction")?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(err("delta fraction must be within [0, 1]"));
            }
            Ok(ParamSpec::DeltaFraction { fraction })
        }
        "above" | "below" => {
            let [v] = words(args).ok_or_else(|| usage("<metric|*> <bound>"))?;
            let bound = parse_f64(v, "bound")?;
            Ok(if verb == "above" {
                ParamSpec::Above { bound }
            } else {
                ParamSpec::Below { bound }
            })
        }
        "range" => {
            let [lo, hi] = words(args).ok_or_else(|| usage("<metric> <lo> <hi>"))?;
            let lo = parse_f64(lo, "lo")?;
            let hi = parse_f64(hi, "hi")?;
            if lo > hi {
                return Err(err("range lo must not exceed hi"));
            }
            Ok(ParamSpec::Range { lo, hi })
        }
        other => Err(err(format!("unknown control command `{other}`"))),
    }
}

impl<'a> Command<'a> {
    /// Parse one control-file write — the only parser of the text.
    pub fn parse(text: &'a str) -> Result<Command<'a>, ControlParseError> {
        let (verb, rest) = head(text.trim());
        match verb {
            "" => Err(err("empty control write")),
            "filter" if rest.is_empty() => Err(err("usage: filter <e-code source>")),
            "filter" => Ok(Command::Filter { source: rest }),
            "nofilter" if rest.is_empty() => Ok(Command::NoFilter),
            "nofilter" => Err(err("nofilter takes no arguments")),
            "clear" => {
                let [metric] = words(rest).ok_or_else(|| err("usage: clear <metric|*>"))?;
                let metric = name(metric)?;
                Ok(Command::Clear { metric })
            }
            "window" => {
                let usage = || err("usage: window <metric> <seconds>");
                let [file, secs] = words(rest).ok_or_else(usage)?;
                let secs = window(parse_f64(secs, "window")?)?;
                let file = name(file)?;
                Ok(Command::Window { file, secs })
            }
            "and" => match head(rest) {
                (verb @ ("period" | "delta" | "above" | "below" | "range"), rest) => {
                    Self::rule(verb, rest, true)
                }
                _ => Err(err(
                    "`and` only combines parameter rules: and <period|delta|above|below|range> <metric> <args...>",
                )),
            },
            verb => Self::rule(verb, rest, false),
        }
    }

    /// `<verb> <metric> <args...>` as a rule.
    fn rule(verb: &str, rest: &'a str, and: bool) -> Result<Command<'a>, ControlParseError> {
        let (metric, args) = head(rest);
        if metric.is_empty() {
            return Err(err(format!("usage: {verb} <metric|*> <args...>")));
        }
        let param = parse_spec(verb, args)?;
        let metric = name(metric)?;
        Ok(Command::Rule { metric, param, and })
    }

    /// The wire message that carries this command, its text taken from
    /// the running thread's pool.
    pub fn to_msg(&self) -> ControlMsg {
        let text = |parts: &[&str]| {
            let mut text = kecho::take_text();
            text.extend(parts.iter().copied());
            text
        };
        let set = |prefix: &str, metric: &str, param| ControlMsg::SetParam {
            metric: text(&[prefix, metric]),
            param,
        };
        match *self {
            Command::Rule { metric, param, and } => set(if and { AND } else { "" }, metric, param),
            Command::Clear { metric } => set(CLEAR, metric, ParamSpec::Period { period_s: 1.0 }),
            Command::Window { file, secs } => {
                set(WINDOW, file, ParamSpec::Period { period_s: secs })
            }
            Command::Filter { source } => ControlMsg::DeployFilter {
                source: text(&[source]),
            },
            Command::NoFilter => ControlMsg::RemoveFilter,
        }
    }

    /// The command a wire message carries; `None` for a message that is
    /// no customization (credits, replies, announcements) or that no
    /// [`Command::to_msg`] writes, such as one with a parameter that is not
    /// finite.
    pub fn of(msg: &'a ControlMsg) -> Option<Command<'a>> {
        let (metric, param) = match msg {
            ControlMsg::SetParam { metric, param } => (metric.as_str(), *param),
            ControlMsg::DeployFilter { source } => return Some(Command::Filter { source }),
            ControlMsg::RemoveFilter => return Some(Command::NoFilter),
            _ => return None,
        };
        let (prefix, metric) = [AND, CLEAR, WINDOW]
            .into_iter()
            .find_map(|p| Some((p, metric.strip_prefix(p)?)))
            .unwrap_or(("", metric));
        let rule = |and| Some(Command::Rule { metric, param, and });
        match (prefix, param) {
            _ if metric.contains(':') || !finite(param) => None,
            ("", _) => rule(false),
            (AND, _) => rule(true),
            (CLEAR, _) => Some(Command::Clear { metric }),
            (WINDOW, ParamSpec::Period { period_s: secs }) if window(secs).is_ok() => {
                Some(Command::Window { file: metric, secs })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(text: &str) -> ControlMsg {
        Command::parse(text).unwrap().to_msg()
    }

    #[test]
    fn parses_period() {
        let c = Command::parse("period cpu 2").unwrap();
        assert_eq!(
            c.to_msg(),
            ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 }
            }
        );
        assert!(matches!(c, Command::Rule { and: false, .. }));
    }

    #[test]
    fn parses_delta_wildcard() {
        assert_eq!(
            msg("delta * 0.15"),
            ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::DeltaFraction { fraction: 0.15 }
            }
        );
    }

    #[test]
    fn parses_bounds_and_range() {
        assert!(matches!(
            msg("above cpu 0.8"),
            ControlMsg::SetParam {
                param: ParamSpec::Above { bound },
                ..
            } if bound == 0.8
        ));
        assert!(matches!(
            msg("below mem 5e7"),
            ControlMsg::SetParam {
                param: ParamSpec::Below { bound },
                ..
            } if bound == 5e7
        ));
        assert!(matches!(
            msg("range disk 100 200"),
            ControlMsg::SetParam {
                param: ParamSpec::Range { lo, hi },
                ..
            } if lo == 100.0 && hi == 200.0
        ));
    }

    #[test]
    fn and_marks_additive() {
        let c = Command::parse("and above cpu 0.8").unwrap();
        assert!(matches!(c, Command::Rule { and: true, .. }));
        assert!(
            matches!(c.to_msg(), ControlMsg::SetParam { ref metric, .. } if metric == "and:cpu")
        );
    }

    #[test]
    fn filter_takes_rest_verbatim() {
        let src = "{ output[0] = input[LOADAVG]; }";
        assert_eq!(
            msg(&format!("filter {src}")),
            ControlMsg::DeployFilter {
                source: src.to_string()
            }
        );
        // multiline source survives
        let multi = "filter {\n int i = 0;\n}";
        let ControlMsg::DeployFilter { source } = msg(multi) else {
            panic!()
        };
        assert!(source.contains("int i = 0;"));
    }

    #[test]
    fn nofilter_and_clear_and_window() {
        assert_eq!(msg("nofilter"), ControlMsg::RemoveFilter);
        let m = msg("clear cpu");
        assert!(matches!(m, ControlMsg::SetParam { ref metric, .. } if metric == "clear:cpu"));
        assert!(
            matches!(msg("window cpu 5"), ControlMsg::SetParam { ref metric, param: ParamSpec::Period { period_s } }
            if metric == "window:cpu" && period_s == 5.0)
        );
    }

    #[test]
    fn rejects_malformed_writes() {
        for bad in [
            "",
            "   ",
            "bogus cpu 1",
            "period cpu",
            "period cpu abc",
            "period cpu -1",
            "delta cpu 1.5",
            "range disk 5 1",
            "nofilter extra",
            "filter",
            "and and above cpu 1",
            "and nofilter",
            "and filter { }",
            "and",
            "window cpu 0",
            "clear",
        ] {
            assert!(Command::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    /// A window past the 15 minutes of run-queue history would stretch
    /// the oldest kept level back over time the scheduler no longer has,
    /// and one under half a nanosecond rounds to no window at all: both
    /// are refused, in the text and on the wire, and the bounds taken.
    #[test]
    fn windows_stay_within_the_history_and_above_zero() {
        for bad in [
            "window cpu 3600",
            "window cpu 900.000000001",
            "window cpu 1e-12",
        ] {
            let e = Command::parse(bad).expect_err(bad);
            assert!(e.message.contains("window"), "{bad}: {e}");
        }
        for secs in [3600.0, 900.000000001, 1e-12, -1.0] {
            let m = ControlMsg::SetParam {
                metric: "window:cpu".into(),
                param: ParamSpec::Period { period_s: secs },
            };
            assert_eq!(Command::of(&m), None, "{secs}");
        }
        for (text, secs) in [("window cpu 900", 900.0), ("window cpu 1e-9", 1e-9)] {
            let file = "cpu";
            assert_eq!(Command::parse(text), Ok(Command::Window { file, secs }));
        }
    }

    /// `period cpu NaN` used to mean "every poll", `period cpu inf` "once,
    /// then never", and `window cpu inf` a window of `u64::MAX` ns.
    #[test]
    fn rejects_numbers_that_are_not_finite() {
        for bad in [
            "period cpu NaN",
            "period cpu inf",
            "and period * +infinity",
            "delta cpu nan",
            "above cpu inf",
            "below mem -inf",
            "range disk -inf 5",
            "range disk 1 inf",
            "range disk NaN NaN",
            "above cpu 1e400",
            "window cpu inf",
            "window cpu NaN",
        ] {
            let e = Command::parse(bad).expect_err(bad);
            assert!(e.message.contains("not a finite number"), "{bad}: {e}");
        }
        let set = |param| ControlMsg::SetParam {
            metric: "cpu".into(),
            param,
        };
        for param in [
            ParamSpec::Period { period_s: f64::NAN },
            ParamSpec::Period {
                period_s: f64::INFINITY,
            },
            ParamSpec::DeltaFraction { fraction: f64::NAN },
            ParamSpec::Above {
                bound: f64::NEG_INFINITY,
            },
            ParamSpec::Below { bound: f64::NAN },
            ParamSpec::Range {
                lo: 0.0,
                hi: f64::INFINITY,
            },
        ] {
            assert_eq!(Command::of(&set(param)), None, "{param:?}");
        }
        let window = ControlMsg::SetParam {
            metric: "window:cpu".into(),
            param: ParamSpec::Period {
                period_s: f64::INFINITY,
            },
        };
        assert_eq!(Command::of(&window), None);
    }

    /// A name holding `:` would be spliced into a wire prefix, and `and`
    /// of a command that is no rule would stack an inert rule under a
    /// prefixed name: both are refused.
    #[test]
    fn rejects_names_and_combinations_that_would_read_as_prefixes() {
        for bad in [
            "period clear:cpu 5",
            "period window:cpu 2",
            "above and:cpu 1",
            "clear and:cpu",
            "window window:cpu 5",
            "and clear cpu",
            "and window cpu 5",
        ] {
            assert!(Command::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn wire_messages_no_command_writes_read_as_none() {
        let set = |metric: &str, param| ControlMsg::SetParam {
            metric: metric.into(),
            param,
        };
        let above = ParamSpec::Above { bound: 1.0 };
        for m in [
            set("and:clear:cpu", above),
            set("clear:window:cpu", above),
            set("window:cpu", above),
            set("cpu:x", above),
            ControlMsg::Announce,
            ControlMsg::Credit { credits: 1 },
            ControlMsg::FilterRejected { reason: "r".into() },
        ] {
            assert_eq!(Command::of(&m), None, "{m:?}");
        }
    }

    #[test]
    fn error_display() {
        let e = Command::parse("bogus x").unwrap_err();
        assert!(e.to_string().contains("bad control write"));
    }

    /// What the wire carried for a command before [`Command`] existed,
    /// spelled out independently: the pin `to_msg` must keep.
    fn wire_of(verb: &str, metric: &str, args: &[f64], and: bool) -> ControlMsg {
        let param = match (verb, args) {
            ("period" | "window", &[v]) => ParamSpec::Period { period_s: v },
            ("delta", &[v]) => ParamSpec::DeltaFraction { fraction: v },
            ("above", &[v]) => ParamSpec::Above { bound: v },
            ("below", &[v]) => ParamSpec::Below { bound: v },
            ("range", &[lo, hi]) => ParamSpec::Range { lo, hi },
            ("clear", &[]) => ParamSpec::Period { period_s: 1.0 },
            _ => unreachable!("{verb} {args:?}"),
        };
        let metric = match (verb, and) {
            ("clear", _) => format!("clear:{metric}"),
            ("window", _) => format!("window:{metric}"),
            (_, true) => format!("and:{metric}"),
            _ => metric.to_string(),
        };
        ControlMsg::SetParam { metric, param }
    }

    /// One accepted write: verb, metric, arguments, `and`.
    fn accepted() -> impl Strategy<Value = (String, String, Vec<f64>, bool)> {
        let metric = prop_oneof![
            Just("*"),
            Just("cpu"),
            Just("mem"),
            Just("disk"),
            Just("net"),
            Just("pmc"),
            Just("LOADAVG"),
            Just("FREEMEM"),
            Just("CACHE_MISS"),
            Just("power"),
        ];
        let positive = (1u64..1 << 40).prop_map(|n| n as f64 / 1024.0);
        let span = (1u64..(900 << 10) + 1).prop_map(|n| n as f64 / 1024.0);
        let bound = proptest::num::f64::NORMAL;
        let fraction = (0u64..1001).prop_map(|n| n as f64 / 1000.0);
        let args = (positive, span, bound, bound, fraction);
        let verb = (0u64..8, args).prop_map(|(k, (p, w, b, c, f))| {
            let (lo, hi) = if b <= c { (b, c) } else { (c, b) };
            match k {
                0 => ("period", vec![p]),
                1 => ("delta", vec![f]),
                2 => ("above", vec![b]),
                3 => ("below", vec![b]),
                4 => ("range", vec![lo, hi]),
                5 => ("clear", vec![]),
                6 => ("window", vec![w]),
                _ => ("range", vec![b, b]),
            }
        });
        (verb, metric, any::<bool>()).prop_map(|((verb, args), metric, and)| {
            let and = and && !matches!(verb, "clear" | "window");
            (verb.to_string(), metric.to_string(), args, and)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_accepted_write_round_trips_through_the_wire(write in accepted()) {
            let (verb, metric, args, and) = write;
            let mut text = format!("{}{verb} {metric}", if and { "and " } else { "" });
            for a in &args {
                text.push_str(&format!(" {a}"));
            }
            let cmd = Command::parse(&text).map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
            let wire = cmd.to_msg();
            prop_assert_eq!(&wire, &wire_of(&verb, &metric, &args, and), "{}", text);
            prop_assert_eq!(Command::of(&wire), Some(cmd), "{}", text);
        }
    }

    #[test]
    fn filters_round_trip_through_the_wire() {
        for text in [
            "filter { output[0] = input[LOADAVG]; }",
            "filter x",
            "nofilter",
        ] {
            let cmd = Command::parse(text).unwrap();
            assert_eq!(Command::of(&cmd.to_msg()), Some(cmd), "{text}");
        }
    }
}

//! Deterministic trace export: CSV and Chrome `trace_event` JSON.
//!
//! A scenario produces one [`Trace`] per run; [`merge_traces`] flattens
//! them into a single stream ordered by `(sim_time, run label, per-run
//! sequence)`. Every component of that key is a pure function of the
//! job specs — wall clock, worker count and cache state never enter —
//! which is what makes `repro trace` byte-identical across `--jobs 1`
//! vs `--jobs N` and cold vs warm cache, and lets the chaos suite
//! `diff` exports directly.
//!
//! The Chrome format targets `chrome://tracing` / Perfetto: quantum
//! utilization becomes a counter track (`ph:"C"`) per run, everything
//! else instant events (`ph:"i"`), with a `thread_name` metadata record
//! mapping each run to its own row.

use crate::event::{Event, EventKind, Field, Trace};

/// One event of the merged, deterministically ordered stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedEvent<'a> {
    /// Simulated time, µs.
    pub time_us: u64,
    /// Label of the run the event belongs to.
    pub run: &'a str,
    /// Position within its run's trace (tiebreak for equal times).
    pub seq: usize,
    /// The event payload.
    pub kind: &'a EventKind,
}

/// Merges per-run traces into one stream ordered by
/// `(time_us, run, seq)`.
pub fn merge_traces<'a>(runs: &'a [(String, Trace)]) -> Vec<MergedEvent<'a>> {
    let mut merged: Vec<MergedEvent<'a>> = Vec::new();
    for (label, trace) in runs {
        for (seq, Event { time_us, kind }) in trace.events().iter().enumerate() {
            merged.push(MergedEvent {
                time_us: *time_us,
                run: label.as_str(),
                seq,
                kind,
            });
        }
    }
    merged.sort_by(|a, b| {
        (a.time_us, a.run, a.seq)
            .partial_cmp(&(b.time_us, b.run, b.seq))
            .expect("total order")
    });
    merged
}

/// Quotes a CSV field if it contains a comma, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the merged stream as CSV
/// (`time_us,run,seq,event,detail`).
pub fn export_csv(merged: &[MergedEvent<'_>]) -> String {
    let mut out = String::from("time_us,run,seq,event,detail\n");
    for e in merged {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            e.time_us,
            csv_field(e.run),
            e.seq,
            e.kind.name(),
            csv_field(&e.kind.detail()),
        ));
    }
    out
}

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_value(f: &Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) => format!("{v:.6}"),
        Field::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn json_args(kind: &EventKind) -> String {
    let fields = kind.fields();
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", k, json_value(v)));
    }
    out.push('}');
    out
}

fn push(out: &mut String, first: &mut bool, s: String) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&s);
    out.push('\n');
}

/// Renders the merged stream as Chrome `trace_event` JSON.
///
/// Each run gets its own `tid` (runs sorted by label, so the mapping is
/// deterministic); quantum boundaries become per-run counter tracks and
/// every other event an instant.
pub fn export_chrome_json(merged: &[MergedEvent<'_>]) -> String {
    let mut labels: Vec<&str> = merged.iter().map(|e| e.run).collect();
    labels.sort_unstable();
    labels.dedup();
    let tid_of = |run: &str| labels.iter().position(|&l| l == run).expect("known run");

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, label) in labels.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
        );
    }
    for e in merged {
        let tid = tid_of(e.run);
        let record = match e.kind {
            EventKind::QuantumBoundary { utilization } => format!(
                "{{\"name\":\"utilization\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"utilization\":{:.6}}}}}",
                e.time_us, utilization
            ),
            kind => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\
                 \"tid\":{tid},\"args\":{}}}",
                kind.name(),
                e.time_us,
                json_args(kind)
            ),
        };
        push(&mut out, &mut first, record);
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(u64, f64)]) -> Trace {
        let mut t = Trace::on();
        for &(at, u) in points {
            t.emit(at, EventKind::QuantumBoundary { utilization: u });
        }
        t
    }

    #[test]
    fn merge_orders_by_time_then_run_then_seq() {
        let runs = vec![
            ("b".to_string(), trace(&[(10, 0.1), (20, 0.2)])),
            ("a".to_string(), trace(&[(10, 0.3), (10, 0.4)])),
        ];
        let merged = merge_traces(&runs);
        let keys: Vec<(u64, &str, usize)> =
            merged.iter().map(|e| (e.time_us, e.run, e.seq)).collect();
        assert_eq!(
            keys,
            vec![(10, "a", 0), (10, "a", 1), (10, "b", 0), (20, "b", 1)]
        );
    }

    #[test]
    fn merge_is_input_order_independent() {
        let ab = vec![
            ("a".to_string(), trace(&[(10, 0.1)])),
            ("b".to_string(), trace(&[(5, 0.2)])),
        ];
        let ba = vec![ab[1].clone(), ab[0].clone()];
        assert_eq!(
            export_csv(&merge_traces(&ab)),
            export_csv(&merge_traces(&ba))
        );
        assert_eq!(
            export_chrome_json(&merge_traces(&ab)),
            export_chrome_json(&merge_traces(&ba))
        );
    }

    #[test]
    fn csv_quotes_commas_in_run_labels() {
        let runs = vec![("PAST, peg - peg".to_string(), trace(&[(10, 1.0)]))];
        let csv = export_csv(&merge_traces(&runs));
        assert!(csv.contains("10,\"PAST, peg - peg\",0,quantum,utilization=1.000000"));
    }

    #[test]
    fn csv_header_and_rows() {
        let runs = vec![("r".to_string(), trace(&[(0, 0.5)]))];
        let csv = export_csv(&merge_traces(&runs));
        assert_eq!(
            csv,
            "time_us,run,seq,event,detail\n0,r,0,quantum,utilization=0.500000\n"
        );
    }

    #[test]
    fn chrome_json_has_thread_names_and_counters() {
        let mut t = Trace::on();
        t.emit(10_000, EventKind::QuantumBoundary { utilization: 0.75 });
        t.emit(
            10_000,
            EventKind::ClockTransition {
                from_khz: 59_000,
                to_khz: 206_400,
                stall_us: 200,
            },
        );
        let runs = vec![("mpeg".to_string(), t)];
        let json = export_chrome_json(&merge_traces(&runs));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"utilization\":0.750000"));
        assert!(json.contains("\"to_khz\":206400"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}

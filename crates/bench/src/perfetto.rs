//! Chrome/Perfetto trace export plus the summary and per-interval table
//! the serving bins' `--trace` prints from one [`TraceReport`].
//!
//! The exporter emits the Chrome `trace_events` JSON flavor (an object
//! with a `traceEvents` array), which both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly:
//!
//! - one named track per shard executor (`thread_name` metadata, `pid`
//!   1, `tid` = shard),
//! - per served envelope, an async `b`/`e` span for its **queue wait**
//!   (enqueue → pop; these overlap freely, hence async) and a complete
//!   `X` span for its **service** time (executors serve one envelope at
//!   a time, so service spans nest cleanly on the shard track),
//! - instants (`i`) for aborts, sheds, steals, group commits/fallbacks,
//!   and snapshot restarts, carrying cause and home key in `args`.
//!
//! Timestamps are microseconds (floats) since the trace epoch, the unit
//! the Chrome format mandates.

use tcp_core::trace::{IntervalRow, TraceCause, TraceKind, TraceReport, ABORT_CAUSES, SHED_CAUSES};

use crate::report::Json;
use crate::table;

/// Nanoseconds → the microsecond floats the Chrome format wants.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// A `thread_name` metadata record naming shard `shard`'s track.
fn track_name(shard: usize) -> Json {
    Json::obj([
        ("name", Json::from("thread_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(1u64)),
        ("tid", Json::from(shard)),
        (
            "args",
            Json::obj([("name", Json::from(format!("shard-{shard} executor")))]),
        ),
    ])
}

/// Shared header fields of one emitted record.
fn record(name: &str, ph: &str, ts_ns: u64, shard: u16) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::from(name)),
        ("ph".into(), Json::from(ph)),
        ("ts".into(), Json::from(us(ts_ns))),
        ("pid".into(), Json::UInt(1)),
        ("tid".into(), Json::from(shard as u64)),
    ]
}

/// Render one drained trace as a Chrome/Perfetto `trace_events` object.
pub fn perfetto_json(rep: &TraceReport) -> Json {
    let mut events: Vec<Json> = (0..rep.shards).map(track_name).collect();
    for ev in &rep.events {
        match ev.kind {
            TraceKind::Done => {
                // `a` = queue wait, `b` = service; the Done stamp is the
                // reply instant, so both spans are reconstructed
                // backwards from it.
                let service_start = ev.ts_ns.saturating_sub(ev.b);
                let enqueue = service_start.saturating_sub(ev.a);
                let mut b = record("queue-wait", "b", enqueue, ev.shard);
                b.push(("cat".into(), Json::from("queue")));
                b.push(("id".into(), Json::from(format!("{:#x}", ev.tx))));
                events.push(Json::Obj(b));
                let mut e = record("queue-wait", "e", service_start, ev.shard);
                e.push(("cat".into(), Json::from("queue")));
                e.push(("id".into(), Json::from(format!("{:#x}", ev.tx))));
                events.push(Json::Obj(e));
                let mut x = record("serve", "X", service_start, ev.shard);
                x.push(("dur".into(), Json::from(us(ev.b))));
                x.push((
                    "args".into(),
                    Json::obj([("tx", Json::from(ev.tx)), ("key", Json::from(ev.key))]),
                ));
                events.push(Json::Obj(x));
            }
            TraceKind::Abort => {
                let mut i = record("abort", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push((
                    "args".into(),
                    Json::obj([
                        ("cause", Json::from(ev.cause.name())),
                        ("key", Json::from(ev.key)),
                        ("grace_ns", Json::from(ev.a)),
                    ]),
                ));
                events.push(Json::Obj(i));
            }
            TraceKind::Shed => {
                let mut i = record("shed", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push((
                    "args".into(),
                    Json::obj([
                        ("cause", Json::from(ev.cause.name())),
                        ("key", Json::from(ev.key)),
                    ]),
                ));
                events.push(Json::Obj(i));
            }
            TraceKind::Steal => {
                let mut i = record("steal", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push((
                    "args".into(),
                    Json::obj([("batch", Json::from(ev.a)), ("victim", Json::from(ev.b))]),
                ));
                events.push(Json::Obj(i));
            }
            TraceKind::GroupCommit => {
                let mut i = record("group-commit", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push((
                    "args".into(),
                    Json::obj([
                        ("members", Json::from(ev.a)),
                        ("coalesced", Json::from(ev.b)),
                    ]),
                ));
                events.push(Json::Obj(i));
            }
            TraceKind::GroupFallback => {
                let mut i = record("group-fallback", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push((
                    "args".into(),
                    Json::obj([("tx", Json::from(ev.tx)), ("key", Json::from(ev.key))]),
                ));
                events.push(Json::Obj(i));
            }
            TraceKind::SnapshotRestart => {
                let mut i = record("snapshot-restart", "i", ev.ts_ns, ev.shard);
                i.push(("s".into(), Json::from("t")));
                i.push(("args".into(), Json::obj([("key", Json::from(ev.key))])));
                events.push(Json::Obj(i));
            }
            // The chatty per-phase kinds (Enqueue, Pop, Speculate,
            // Acquire, Validate, Publish, SnapshotRead) stay out of the
            // viewer export — they are already folded into the summary
            // and would multiply the file size without adding tracks.
            _ => {}
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

/// Per-cause abort totals as an object keyed by stable cause names.
fn abort_obj(rep: &TraceReport) -> Json {
    Json::obj((0..ABORT_CAUSES).map(|i| {
        let cause = TraceCause::abort_cause(i);
        (cause.name(), Json::from(rep.abort_total(cause)))
    }))
}

/// Per-cause shed totals; keys drop the `shed_` prefix (the section is
/// already named `sheds`).
fn shed_obj(rep: &TraceReport) -> Json {
    Json::obj((0..SHED_CAUSES).map(|i| {
        let cause = TraceCause::shed_cause(i);
        let key = cause.name().trim_start_matches("shed_");
        (key, Json::from(rep.shed_total(cause)))
    }))
}

/// The `# trace_summary:` line: event/drop totals, per-cause
/// abort and shed attribution (equal to the engine counters — the
/// attribution counters never drop), and the per-shard hot-key tables.
pub fn trace_summary_json(rep: &TraceReport) -> Json {
    let per_shard: Vec<Json> = (0..rep.shards)
        .map(|s| {
            let hot: Vec<Json> = rep.hot_keys[s]
                .iter()
                .map(|&(key, count)| {
                    Json::obj([("key", Json::from(key)), ("aborts", Json::from(count))])
                })
                .collect();
            Json::obj([
                ("shard", Json::from(s)),
                ("dropped", Json::from(rep.dropped[s])),
                ("aborts", Json::from(rep.aborts[s].iter().sum::<u64>())),
                ("sheds", Json::from(rep.sheds[s].iter().sum::<u64>())),
                ("hot_keys", Json::Arr(hot)),
            ])
        })
        .collect();
    Json::obj([
        ("events", Json::from(rep.events.len())),
        ("dropped", Json::from(rep.dropped_total())),
        ("aborts", abort_obj(rep)),
        ("sheds", shed_obj(rep)),
        ("hot_key_slots", Json::from(rep.hot_key_slots())),
        ("per_shard", Json::Arr(per_shard)),
    ])
}

/// The per-interval rates: ops/s, aborts/s, sheds/s, and p99 queue wait,
/// from [`TraceReport::timeseries`].
pub fn timeseries_json(rep: &TraceReport, interval_ns: u64) -> Json {
    let secs = interval_ns as f64 / 1e9;
    let rows: Vec<Json> = rep
        .timeseries(interval_ns)
        .iter()
        .map(|row: &IntervalRow| {
            Json::obj([
                ("t_s", Json::from(row.t_ns as f64 / 1e9)),
                ("ops_per_sec", Json::from(row.done as f64 / secs)),
                ("aborts_per_sec", Json::from(row.aborts as f64 / secs)),
                ("sheds_per_sec", Json::from(row.sheds as f64 / secs)),
                (
                    "p99_queue_wait_us",
                    Json::from(row.p99_queue_wait_ns as f64 / 1_000.0),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("interval_ns", Json::from(interval_ns)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Print [`timeseries_json`]'s rows as a TSV block, one row per interval.
pub fn print_timeseries(rep: &TraceReport, interval_ns: u64) {
    println!("# timeseries: interval_ns={interval_ns}");
    table::header(&["t_s", "ops/s", "aborts/s", "sheds/s", "qw99_us"]);
    let series = timeseries_json(rep, interval_ns);
    let Some(Json::Arr(rows)) = series.get("rows") else {
        return;
    };
    for row in rows {
        if let Json::Obj(cells) = row {
            table::row(&cells.iter().map(|(_, v)| v.render()).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::engine::AbortKind;
    use tcp_core::trace::{Trace, TraceConfig, TraceEvent, TraceTag};

    fn sample_report() -> TraceReport {
        let t = Trace::new(
            2,
            &TraceConfig {
                enabled: true,
                ring_capacity: 64,
            },
        );
        let tag = TraceTag {
            shard: 0,
            tx: 7,
            key: 3,
        };
        t.emit(TraceEvent::lifecycle(TraceKind::Done, tag, 1_000, 2_000));
        t.emit(TraceEvent::abort(tag, AbortKind::Conflict, 500));
        t.emit(TraceEvent::shed(1, 9, TraceCause::ShedCapacity));
        t.emit(TraceEvent::lifecycle(
            TraceKind::Steal,
            TraceTag {
                shard: 1,
                tx: 0,
                key: 0,
            },
            4,
            0,
        ));
        t.finish()
    }

    #[test]
    fn perfetto_export_has_tracks_spans_and_instants() {
        let rep = sample_report();
        let j = perfetto_json(&rep);
        let body = j.render();
        // Loadable shape: a traceEvents array with per-shard track
        // names, the Done span pair, and cause-tagged instants.
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"shard-0 executor\""));
        assert!(body.contains("\"shard-1 executor\""));
        assert!(body.contains("\"queue-wait\""));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"abort\""));
        assert!(body.contains("\"conflict\""));
        assert!(body.contains("\"shed_capacity\""));
        assert!(body.contains("\"steal\""));
        let Json::Obj(pairs) = &j else {
            panic!("export must be an object")
        };
        let Json::Arr(events) = &pairs[0].1 else {
            panic!("traceEvents must be an array")
        };
        // 2 track names + 3 Done records + abort + shed + steal.
        assert_eq!(events.len(), 2 + 3 + 3);
    }

    #[test]
    fn summary_reports_attribution_and_hot_keys() {
        let rep = sample_report();
        let body = trace_summary_json(&rep).render();
        assert!(body.contains("\"conflict\":1"));
        assert!(body.contains("\"capacity\":1"));
        assert!(body.contains("\"dropped\":0"));
        assert!(body.contains("\"hot_keys\":[{\"key\":3,\"aborts\":1}]"));
    }

    #[test]
    fn timeseries_rows_scale_counts_to_rates() {
        let rep = sample_report();
        let j = timeseries_json(&rep, 1_000_000_000);
        let body = j.render();
        assert!(body.contains("\"interval_ns\":1000000000"));
        // One Done event in a 1s bucket → 1 op/s in some row.
        assert!(body.contains("\"ops_per_sec\":1"));
    }
}

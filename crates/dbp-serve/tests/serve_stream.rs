//! End-to-end session tests: the daemon's core contract is that feeding
//! a recorded batch trace through a [`Session`] reproduces the recording
//! byte-for-byte (placements, bin lifecycle, clock motion) and lands on
//! the same final metrics — stream/batch equivalence — while compaction
//! keeps the item table bounded, backpressure sheds load with a typed
//! rejection, and a snapshot/restore cycle is cost- and count-continuous.

use dbp_core::engine::run_with_config;
use dbp_core::SimConfig;
use dbp_core::{
    Area, Dur, EngineEvent, FailurePlan, ItemId, JsonlSink, RecourseBudget, RetryPolicy, Size, Time,
};
use dbp_serve::protocol::{Op, Request};
use dbp_serve::snapshot::RestoreError;
use dbp_serve::{parse_request, snapshot, ServeConfig, Session, SessionMap};
use dbp_workloads::{random_general, DurationDist, GeneralConfig};

/// Records a batch run as JSONL text.
fn record_batch(
    inst: &dbp_core::Instance,
    algo: &str,
    plan: FailurePlan,
    retry: RetryPolicy,
) -> (String, dbp_core::PackingResult) {
    let mut sink = JsonlSink::new(Vec::new());
    let result = run_with_config(
        inst,
        dbp_algos::by_name(algo).expect("known algorithm"),
        SimConfig::crashing(plan, retry),
        &mut sink,
    )
    .expect("batch run succeeds");
    let bytes = sink.finish().expect("in-memory sink");
    (String::from_utf8(bytes).expect("codec emits utf-8"), result)
}

/// Feeds every line of `input` through a session, returning the full
/// response stream, then drains.
fn replay(session: &mut Session, input: &str) -> String {
    let mut out = String::new();
    for line in input.lines() {
        let req = parse_request(line).expect("recorded lines parse");
        session.handle(&req);
        out.push_str(&session.take_output());
    }
    session.handle(&Request::Control {
        tenant: None,
        op: Op::Drain,
    });
    out.push_str(&session.take_output());
    out
}

/// Strips the daemon's own `"r"`-keyed response lines, leaving the
/// engine-event echo that must match the recording.
fn event_lines(stream: &str) -> String {
    let mut s = String::new();
    for line in stream.lines() {
        if !line.starts_with("{\"r\":") {
            s.push_str(line);
            s.push('\n');
        }
    }
    s
}

#[test]
fn stream_replay_matches_batch_recording() {
    let inst = random_general(&GeneralConfig::new(6, 800), 11);
    let (recording, batch) = record_batch(
        &inst,
        "first-fit",
        FailurePlan::None,
        RetryPolicy::Immediate,
    );

    let cfg = ServeConfig::default();
    let mut session = Session::new("t", &cfg).unwrap();
    let stream = replay(&mut session, &recording);

    assert_eq!(event_lines(&stream), recording, "event echo diverged");
    assert_eq!(session.effective_metrics(), batch.metrics);
    assert_eq!(session.effective_cost(), batch.cost);
    assert_eq!(session.effective_bins_opened(), batch.bins_opened as u64);
    assert_eq!(session.effective_max_open(), batch.max_open);
}

#[test]
fn stream_replay_matches_batch_under_chaos() {
    let inst = random_general(&GeneralConfig::new(7, 600), 23);
    let plan = FailurePlan::seeded(0.25, 7, Dur(64));
    let retry = RetryPolicy::Immediate;
    let (recording, batch) = record_batch(&inst, "first-fit", plan.clone(), retry);
    assert!(
        batch.resilience.bin_failures > 0,
        "chaos plan should actually crash bins"
    );

    let cfg = ServeConfig {
        sim: SimConfig::crashing(plan, retry),
        ..ServeConfig::default()
    };
    let mut session = Session::new("t", &cfg).unwrap();
    let stream = replay(&mut session, &recording);

    assert_eq!(event_lines(&stream), recording, "chaos echo diverged");
    assert_eq!(session.effective_metrics(), batch.metrics);
    assert_eq!(session.effective_resilience(), batch.resilience);
    assert_eq!(session.effective_cost(), batch.cost);
}

#[test]
fn other_algorithms_replay_byte_identically_too() {
    let inst = random_general(&GeneralConfig::new(5, 300), 31);
    for algo in ["best-fit", "next-fit", "cdff", "hybrid"] {
        let (recording, batch) =
            record_batch(&inst, algo, FailurePlan::None, RetryPolicy::Immediate);
        let cfg = ServeConfig {
            algo: algo.to_string(),
            ..ServeConfig::default()
        };
        let mut session = Session::new("t", &cfg).unwrap();
        let stream = replay(&mut session, &recording);
        assert_eq!(event_lines(&stream), recording, "{algo} echo diverged");
        assert_eq!(session.effective_cost(), batch.cost, "{algo} cost diverged");
    }
}

/// A long churn trace: short-lived items trickling in, so the live set
/// stays tiny while the item table would grow without bound.
fn churn_instance(items: usize, seed: u64) -> dbp_core::Instance {
    let cfg = GeneralConfig {
        items,
        mean_gap: 2,
        durations: DurationDist::Fixed { ticks: 6 },
        size_range: (5, 30, 100),
    };
    random_general(&cfg, seed)
}

#[test]
fn compaction_bounds_steady_state_memory_without_changing_output() {
    let items = 4000;
    let inst = churn_instance(items, 5);

    let tight = ServeConfig {
        compact_slack: 8,
        ..ServeConfig::default()
    };
    let loose = ServeConfig {
        compact_slack: usize::MAX / 4, // effectively never compact
        ..ServeConfig::default()
    };
    let mut compacted = Session::new("t", &tight).unwrap();
    let mut unbounded = Session::new("t", &loose).unwrap();

    let mut out_c = String::new();
    let mut out_u = String::new();
    let mut peak_live = 0usize;
    let mut peak_table = 0usize;
    let mut peak_bins = 0usize;
    for it in inst.items() {
        let ev = EngineEvent::Arrival {
            item: ItemId(0), // input ids are engine-assigned; ignored
            at: it.arrival,
            size: it.size,
            departure: Some(it.departure),
        };
        for (sess, out) in [(&mut compacted, &mut out_c), (&mut unbounded, &mut out_u)] {
            sess.handle(&Request::Event {
                tenant: None,
                event: ev,
            });
            out.push_str(&sess.take_output());
        }
        peak_live = peak_live.max(compacted.live_items());
        peak_table = peak_table.max(compacted.table_len());
        peak_bins = peak_bins.max(compacted.bin_records());
        // The compaction policy's invariant, re-established after every
        // event: the table never holds more dead rows than live + slack,
        // and the bin table never holds more closed records than open +
        // slack.
        assert!(
            compacted.table_len() < 2 * compacted.live_items() + 8,
            "table {} exceeds bound at live {}",
            compacted.table_len(),
            compacted.live_items()
        );
        assert!(
            compacted.bin_records() < 2 * compacted.open_bins() + 8,
            "bin records {} exceed bound at open {}",
            compacted.bin_records(),
            compacted.open_bins()
        );
    }
    for (sess, out) in [(&mut compacted, &mut out_c), (&mut unbounded, &mut out_u)] {
        sess.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        out.push_str(&sess.take_output());
    }

    assert!(
        items >= 10 * peak_live,
        "churn factor too low for a soak: {items} items, peak live {peak_live}"
    );
    assert!(
        peak_table <= 2 * peak_live + 8,
        "peak table {peak_table} not within constant factor of peak live {peak_live}"
    );
    assert!(
        unbounded.table_len() == items,
        "loose session should have kept every row"
    );
    assert!(
        peak_bins <= 2 * (peak_live + 1) + 8,
        "peak bin records {peak_bins} not within constant factor of peak live {peak_live}"
    );
    assert!(
        unbounded.bin_records() == unbounded.effective_bins_opened() as usize,
        "loose session should have kept every bin record"
    );
    assert_eq!(
        event_lines(&out_c),
        event_lines(&out_u),
        "compaction changed the observable stream"
    );
    assert_eq!(compacted.effective_cost(), unbounded.effective_cost());
    assert_eq!(compacted.effective_metrics().arrivals, items as u64);
}

#[test]
fn backpressure_rejects_with_typed_response() {
    let cfg = ServeConfig {
        max_live: 4,
        ..ServeConfig::default()
    };
    let mut session = Session::new("t", &cfg).unwrap();
    let mut out = String::new();
    for _ in 0..10 {
        session.handle(&Request::Event {
            tenant: None,
            event: EngineEvent::Arrival {
                item: ItemId(0),
                at: Time(0),
                size: Size::from_ratio(1, 10).into(),
                departure: Some(Time(10)),
            },
        });
        out.push_str(&session.take_output());
    }
    let overloaded = out
        .lines()
        .filter(|l| l.starts_with("{\"r\":\"overloaded\""))
        .count();
    assert_eq!(overloaded, 6, "4 admitted, 6 shed");
    assert_eq!(session.effective_metrics().arrivals, 4);
    assert_eq!(session.live_items(), 4);
}

/// Feeds `items` as dated arrivals, returning the response stream.
fn feed(sess: &mut Session, items: &[dbp_core::Item]) -> String {
    let mut out = String::new();
    for it in items {
        sess.handle(&Request::Event {
            tenant: None,
            event: EngineEvent::Arrival {
                item: ItemId(0),
                at: it.arrival,
                size: it.size,
                departure: Some(it.departure),
            },
        });
        out.push_str(&sess.take_output());
    }
    out
}

/// Drains the session, returning the response stream.
fn drain(sess: &mut Session) -> String {
    sess.handle(&Request::Control {
        tenant: None,
        op: Op::Drain,
    });
    sess.take_output()
}

#[test]
fn snapshot_restore_is_exact_or_refused_for_every_algorithm() {
    // A restore either continues the uninterrupted run byte for byte or
    // is refused: algorithms whose decisions read only engine state (bin
    // classes and latest departures travel in the snapshot) resume
    // exactly; those with private state get a typed refusal.
    for seed in [42, 7] {
        let inst = random_general(&GeneralConfig::new(6, 600), seed);
        let (head, tail) = inst.items().split_at(300);
        for &algo in dbp_algos::registry_names() {
            let cfg = ServeConfig {
                algo: algo.to_string(),
                ..ServeConfig::default()
            };
            // Control: one uninterrupted session over the whole instance.
            let mut control = Session::new("t", &cfg).unwrap();
            feed(&mut control, head);
            let control_tail = feed(&mut control, tail) + &drain(&mut control);

            // Split: half, snapshot, restore into a fresh session, other half.
            let mut first = Session::new("t", &cfg).unwrap();
            feed(&mut first, head);
            let snap = snapshot::write_snapshot(&first);
            // HA's type loads, CDFF's segment frame and Random-Fit's
            // generator live outside the engine.
            let refused = ["hybrid", "cdff", "random-fit"].contains(&algo);
            let mut restored = match snapshot::restore(&snap, &cfg) {
                Ok(restored) if !refused => restored,
                Err(RestoreError::Unrestorable { algo: named, .. }) if refused => {
                    assert_eq!(named, algo);
                    continue;
                }
                Ok(_) => panic!("{algo}: restored despite private state"),
                Err(e) => panic!("{algo} (seed {seed}): {e}"),
            };
            assert_eq!(restored.tenant(), "t");
            assert_eq!(restored.live_items(), first.live_items());
            let restored_tail = feed(&mut restored, tail) + &drain(&mut restored);

            // The event echo must match byte for byte; the daemon's own
            // `"r"` lines report physical state (the restored item table
            // holds only the live rows).
            assert!(
                event_lines(&restored_tail) == event_lines(&control_tail),
                "{algo} (seed {seed}): resumed stream diverged from the uninterrupted one"
            );
            assert_eq!(
                restored.effective_cost(),
                control.effective_cost(),
                "{algo}"
            );
            assert_eq!(
                restored.effective_metrics().arrivals,
                control.effective_metrics().arrivals,
                "{algo}"
            );
            assert_eq!(
                restored.effective_bins_opened(),
                control.effective_bins_opened(),
                "{algo}"
            );
            assert_eq!(
                restored.effective_max_open(),
                control.effective_max_open(),
                "{algo}"
            );
        }
    }
}

#[test]
fn snapshot_restore_chains_across_restarts() {
    // Two restarts: corrections must telescope, not double-count.
    let inst = random_general(&GeneralConfig::new(5, 450), 77);
    let cfg = ServeConfig::default();
    let mut control = Session::new("t", &cfg).unwrap();
    let mut live = Session::new("t", &cfg).unwrap();
    for (i, it) in inst.items().iter().enumerate() {
        let ev = EngineEvent::Arrival {
            item: ItemId(0),
            at: it.arrival,
            size: it.size,
            departure: Some(it.departure),
        };
        for sess in [&mut control, &mut live] {
            sess.handle(&Request::Event {
                tenant: None,
                event: ev,
            });
            sess.take_output();
        }
        if i == 150 || i == 300 {
            let snap = snapshot::write_snapshot(&live);
            live = snapshot::restore(&snap, &cfg).expect("restart restores");
        }
    }
    for sess in [&mut control, &mut live] {
        sess.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        sess.take_output();
    }
    assert_eq!(live.effective_cost(), control.effective_cost());
    assert_eq!(
        live.effective_bins_opened(),
        control.effective_bins_opened()
    );
}

#[test]
fn tenants_are_isolated_in_the_session_map() {
    let inst_a = random_general(&GeneralConfig::new(5, 200), 1);
    let inst_b = random_general(&GeneralConfig::new(5, 200), 2);
    let cfg = ServeConfig::default();

    // Solo baselines.
    let run_solo = |inst: &dbp_core::Instance| {
        let mut s = Session::new("solo", &cfg).unwrap();
        for it in inst.items() {
            s.handle(&Request::Event {
                tenant: None,
                event: EngineEvent::Arrival {
                    item: ItemId(0),
                    at: it.arrival,
                    size: it.size,
                    departure: Some(it.departure),
                },
            });
        }
        s.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        let out = s.take_output();
        (event_lines(&out), s.effective_cost())
    };
    let (solo_a, cost_a) = run_solo(&inst_a);
    let (solo_b, cost_b) = run_solo(&inst_b);

    // Interleaved through the map: a, b, a, b, …
    let map = SessionMap::new(cfg.clone());
    let mut outs = std::collections::HashMap::new();
    for i in 0..200 {
        for (tenant, inst) in [("a", &inst_a), ("b", &inst_b)] {
            let it = &inst.items()[i];
            let session = map.session(tenant).unwrap();
            let mut s = session.lock().unwrap();
            s.handle(&Request::Event {
                tenant: Some(tenant.to_string()),
                event: EngineEvent::Arrival {
                    item: ItemId(0),
                    at: it.arrival,
                    size: it.size,
                    departure: Some(it.departure),
                },
            });
            *outs.entry(tenant).or_insert_with(String::new) += &s.take_output();
        }
    }
    for tenant in map.tenants() {
        let session = map.session(&tenant).unwrap();
        let mut s = session.lock().unwrap();
        s.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        *outs
            .entry(if tenant == "a" { "a" } else { "b" })
            .or_insert_with(String::new) += &s.take_output();
        let want = if tenant == "a" { cost_a } else { cost_b };
        assert_eq!(s.effective_cost(), want, "tenant {tenant} cost diverged");
    }
    assert_eq!(event_lines(&outs["a"]), solo_a);
    assert_eq!(event_lines(&outs["b"]), solo_b);
}

#[test]
fn recourse_stream_replay_matches_batch_recording() {
    // The byte-equivalence contract extends to a recourse algorithm: the
    // daemon regenerates the batch engine's `ItemMigrated` events itself
    // (migrated input lines are engine outputs and are ignored on the way
    // in, like placements), and the ledger lands on the telemetry.
    let inst = random_general(&GeneralConfig::new(6, 800), 11);
    let budget = RecourseBudget::per_epoch(1);
    let mut sink = JsonlSink::new(Vec::new());
    let batch = run_with_config(
        &inst,
        dbp_algos::by_name("rod:first-fit").expect("known algorithm"),
        SimConfig::repacking(budget),
        &mut sink,
    )
    .expect("batch run succeeds");
    let recording = String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf-8");
    assert!(
        batch.recourse.migrations > 0,
        "budget should engage on this trace"
    );
    assert!(recording.contains("\"e\":\"migrated\""));

    let cfg = ServeConfig {
        sim: SimConfig::repacking(budget),
        algo: "rod:first-fit".to_string(),
        ..ServeConfig::default()
    };
    let mut session = Session::new("t", &cfg).unwrap();
    let stream = replay(&mut session, &recording);

    assert_eq!(event_lines(&stream), recording, "recourse echo diverged");
    assert_eq!(session.effective_cost(), batch.cost);
    assert_eq!(session.effective_recourse(), batch.recourse);
    assert_eq!(session.effective_metrics(), batch.metrics);
    assert!(
        stream.contains("{\"r\":\"recourse\""),
        "armed budget should add the recourse telemetry line"
    );
}

#[test]
fn snapshot_restore_is_continuous_under_recourse() {
    // A restart mid-run must not change what budgeted repacking achieves:
    // the restored engine re-arms the budget after its muted replay (no
    // migration fires against the reconstruction script) and keeps making
    // the same consolidation moves the uninterrupted control makes.
    let inst = random_general(&GeneralConfig::new(6, 600), 42);
    let cfg = ServeConfig {
        sim: SimConfig::repacking(RecourseBudget::per_epoch(1)),
        algo: "rod:first-fit".to_string(),
        ..ServeConfig::default()
    };

    let feed = |sess: &mut Session, items: &[dbp_core::Item]| {
        for it in items {
            sess.handle(&Request::Event {
                tenant: None,
                event: EngineEvent::Arrival {
                    item: ItemId(0),
                    at: it.arrival,
                    size: it.size,
                    departure: Some(it.departure),
                },
            });
            sess.take_output();
        }
    };
    let drain = |sess: &mut Session| {
        sess.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        sess.take_output();
    };

    let mut control = Session::new("t", &cfg).unwrap();
    feed(&mut control, inst.items());
    drain(&mut control);
    assert!(
        control.effective_recourse().migrations > 0,
        "budget should engage on this trace"
    );

    let mut first = Session::new("t", &cfg).unwrap();
    feed(&mut first, &inst.items()[..300]);
    let snap = snapshot::write_snapshot(&first);
    let at_snapshot = first.effective_recourse();
    let mut restored = snapshot::restore(&snap, &cfg).expect("snapshot restores");
    feed(&mut restored, &inst.items()[300..]);
    drain(&mut restored);

    assert_eq!(restored.effective_cost(), control.effective_cost());
    assert_eq!(restored.effective_recourse(), control.effective_recourse());
    assert_eq!(
        restored.effective_bins_opened(),
        control.effective_bins_opened()
    );
    assert!(
        restored.effective_recourse().migrations > at_snapshot.migrations,
        "migrations should continue after the restore"
    );
}

#[test]
fn snapshot_restore_carries_pending_readmissions() {
    // A restart used to drop displaced items still waiting out their
    // re-admission backoff; they now travel as `snap_readmit` lines and
    // the carried retries fire on their own in the restored engine.
    let inst = random_general(&GeneralConfig::new(6, 600), 23);
    let chaos = ServeConfig {
        sim: SimConfig::crashing(
            FailurePlan::seeded(0.25, 7, Dur(64)),
            RetryPolicy::parse("fixed=40").expect("valid policy"),
        ),
        ..ServeConfig::default()
    };
    let mut first = Session::new("t", &chaos).unwrap();
    for it in inst.items() {
        first.handle(&Request::Event {
            tenant: None,
            event: EngineEvent::Arrival {
                item: ItemId(0),
                at: it.arrival,
                size: it.size,
                departure: Some(it.departure),
            },
        });
        first.take_output();
        if first.pending_readmissions() > 0 {
            break;
        }
    }
    let pending = first.pending_readmissions();
    assert!(pending > 0, "chaos plan never left a re-admission pending");
    let snap = snapshot::write_snapshot(&first);
    assert!(
        snap.contains("\"snap_readmit\":"),
        "snapshot should carry the retry queue"
    );

    // Restore into a calm config (no further crashes), so every carried
    // retry re-enters exactly once during the drain.
    let calm = ServeConfig {
        sim: SimConfig::crashing(FailurePlan::none(), chaos.sim.retry),
        ..ServeConfig::default()
    };
    let mut restored = snapshot::restore(&snap, &calm).expect("snapshot restores");
    assert_eq!(
        restored.pending_readmissions(),
        pending,
        "retry queue carried"
    );
    let before = restored.effective_resilience();
    restored.handle(&Request::Control {
        tenant: None,
        op: Op::Drain,
    });
    let out = restored.take_output();
    assert_eq!(
        out.matches("\"e\":\"readmitted\"").count(),
        pending,
        "every carried retry re-enters during the drain"
    );
    let after = restored.effective_resilience();
    assert_eq!(after.readmissions, before.readmissions + pending as u64);
    assert_eq!(after.dropped, before.dropped, "no carried retry is lost");
    assert_eq!(restored.pending_readmissions(), 0);
    assert_eq!(restored.live_items(), 0, "drain settles everything");
}

#[test]
fn departure_lines_date_undated_arrivals() {
    let cfg = ServeConfig::default();
    let mut session = Session::new("t", &cfg).unwrap();
    // Undated arrival at t=0 (non-clairvoyant interface)…
    session.handle(&Request::Event {
        tenant: None,
        event: EngineEvent::Arrival {
            item: ItemId(0),
            at: Time(0),
            size: Size::from_ratio(1, 2).into(),
            departure: None,
        },
    });
    // …clock moves on…
    session.handle(&Request::Event {
        tenant: None,
        event: EngineEvent::ClockAdvanced {
            from: Time(0),
            to: Time(5),
        },
    });
    // …and a departure line for the same external id dates it now.
    session.handle(&Request::Event {
        tenant: None,
        event: EngineEvent::Departure {
            item: ItemId(0),
            at: Time(5),
            bin: dbp_core::BinId(0),
            size: Size::from_ratio(1, 2).into(),
        },
    });
    session.handle(&Request::Control {
        tenant: None,
        op: Op::Drain,
    });
    let out = session.take_output();
    assert!(
        !out.contains("\"r\":\"error\""),
        "unexpected error in: {out}"
    );
    // One bin, open exactly [0, 5).
    assert_eq!(session.effective_cost(), Area::from_bin_ticks(Dur(5)));
    assert_eq!(session.live_items(), 0);
}

#[test]
fn seeded_chaos_survives_restarts_bit_identically() {
    // The chaos twin of `snapshot_restore_chains_across_restarts`: under
    // a seeded crash plan, dooms drawn before a restart must still fire
    // (they travel in the snapshot), bins opened after it must draw the
    // fates their uninterrupted-run counterparts would (the fate offset),
    // and external bin numbering continues across the restart — so the
    // *entire event stream*, crashes included, matches the control run
    // byte for byte across two restarts.
    let inst = random_general(&GeneralConfig::new(4, 800), 99);
    let plan = FailurePlan::seeded(0.6, 13, Dur(60));
    let cfg = ServeConfig {
        sim: SimConfig::crashing(plan, RetryPolicy::Fixed(Dur(3))),
        ..ServeConfig::default()
    };
    let mut control = Session::new("t", &cfg).unwrap();
    let mut live = Session::new("t", &cfg).unwrap();
    let mut control_echo = String::new();
    let mut live_echo = String::new();
    let mut saw_doom_line = false;
    for (i, it) in inst.items().iter().enumerate() {
        let ev = EngineEvent::Arrival {
            item: ItemId(0),
            at: it.arrival,
            size: it.size,
            departure: Some(it.departure),
        };
        control.handle(&Request::Event {
            tenant: None,
            event: ev,
        });
        control_echo.push_str(&control.take_output());
        live.handle(&Request::Event {
            tenant: None,
            event: ev,
        });
        live_echo.push_str(&live.take_output());
        if i == 200 || i == 400 {
            let snap = snapshot::write_snapshot(&live);
            saw_doom_line |= snap.contains("\"doom\":");
            live = snapshot::restore(&snap, &cfg).expect("restart restores");
            let replay_echo = live.take_output();
            assert!(
                event_lines(&replay_echo).is_empty(),
                "muted replay must not re-emit events: {replay_echo}"
            );
        }
    }
    for (sess, echo) in [
        (&mut control, &mut control_echo),
        (&mut live, &mut live_echo),
    ] {
        sess.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        echo.push_str(&sess.take_output());
    }
    assert!(
        saw_doom_line,
        "at least one snapshot should carry a pending doom"
    );
    let r = control.effective_resilience();
    assert!(r.bin_failures > 0, "the plan should actually crash bins");
    assert_eq!(
        event_lines(&live_echo),
        event_lines(&control_echo),
        "event streams diverged across restarts"
    );
    assert_eq!(live.effective_resilience(), r);
    assert_eq!(live.effective_cost(), control.effective_cost());
    assert_eq!(
        live.effective_bins_opened(),
        control.effective_bins_opened()
    );
}

#[test]
fn bin_compaction_survives_chaos_and_restarts_bit_identically() {
    // The hardest composition: a tight-slack session reclaims closed bin
    // records (renumbering internal ids and shifting the seeded-fate
    // cursor), crashes keep firing from the seeded plan, and two restarts
    // force the renumbered state through a snapshot/restore cycle. The
    // external stream must still match a loose-slack, never-restarted
    // control byte for byte.
    let inst = churn_instance(1200, 99);
    let plan = FailurePlan::seeded(0.5, 13, Dur(30));
    let tight = ServeConfig {
        sim: SimConfig::crashing(plan.clone(), RetryPolicy::Fixed(Dur(3))),
        compact_slack: 8,
        ..ServeConfig::default()
    };
    let loose = ServeConfig {
        sim: SimConfig::crashing(plan, RetryPolicy::Fixed(Dur(3))),
        compact_slack: usize::MAX / 4,
        ..ServeConfig::default()
    };
    let mut control = Session::new("t", &loose).unwrap();
    let mut live = Session::new("t", &tight).unwrap();
    let mut control_echo = String::new();
    let mut live_echo = String::new();
    let mut peak_bins = 0usize;
    for (i, it) in inst.items().iter().enumerate() {
        let ev = EngineEvent::Arrival {
            item: ItemId(0),
            at: it.arrival,
            size: it.size,
            departure: Some(it.departure),
        };
        control.handle(&Request::Event {
            tenant: None,
            event: ev,
        });
        control_echo.push_str(&control.take_output());
        live.handle(&Request::Event {
            tenant: None,
            event: ev,
        });
        live_echo.push_str(&live.take_output());
        peak_bins = peak_bins.max(live.bin_records());
        if i == 400 || i == 800 {
            let snap = snapshot::write_snapshot(&live);
            live = snapshot::restore(&snap, &tight).expect("restart restores");
            live.take_output(); // muted replay emits no events
        }
    }
    for (sess, echo) in [
        (&mut control, &mut control_echo),
        (&mut live, &mut live_echo),
    ] {
        sess.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        echo.push_str(&sess.take_output());
    }
    let r = control.effective_resilience();
    assert!(r.bin_failures > 0, "the plan should actually crash bins");
    assert!(
        peak_bins * 4 < control.bin_records(),
        "tight session should reclaim most bin records \
         (peak {peak_bins} vs {} kept loose)",
        control.bin_records()
    );
    assert_eq!(
        event_lines(&live_echo),
        event_lines(&control_echo),
        "bin compaction + restarts changed the observable stream"
    );
    assert_eq!(live.effective_resilience(), r);
    assert_eq!(live.effective_cost(), control.effective_cost());
    assert_eq!(
        live.effective_bins_opened(),
        control.effective_bins_opened()
    );
    assert_eq!(live.effective_metrics(), control.effective_metrics());
}

//! Integration gates for the `ss-verify` explorer itself: the real
//! protocol must check out clean at a meaningful scope, and every seeded
//! mutation must be caught by the invariant it was planted to break.

use ss_verify::explore::{detect, explore, run_script};
use ss_verify::invariants::inv;
use ss_verify::model::{parse_script, Action, Scope};
use ss_verify::mutation::{Mutation, MutationSet};

/// The invariant each seeded defect is designed to trip. A mutation
/// caught by a *different* invariant still proves detection, but it
/// means the directed script drifted from its intent — fail loudly.
fn intended_invariant(m: Mutation) -> &'static str {
    match m {
        Mutation::DropPromotions => inv::CONVERGENCE,
        Mutation::NoQueueDedup => inv::SELF_CHECK,
        Mutation::FrozenSummaryDigest => inv::CONVERGENCE,
        Mutation::ReuseSeq => inv::MONOTONE_SEQ,
        Mutation::AcceptStale => inv::VERSION_REGRESSION,
        Mutation::NoBackoffCap => inv::BACKOFF_CAP,
        Mutation::KeepPendingOnInstall => inv::PENDING_NACK,
        Mutation::ExpireEarly => inv::TTL,
        Mutation::DropNackKeys => inv::CONVERGENCE,
        Mutation::VersionClamp => inv::CONVERGENCE,
        Mutation::CorruptRootDigest => inv::REPAIR_QUIESCENCE,
        Mutation::StripTombstones => inv::CONVERGENCE,
        Mutation::DropQueries => inv::CONVERGENCE,
    }
}

#[test]
fn every_seeded_mutation_is_caught_by_its_intended_invariant() {
    for m in Mutation::ALL {
        let cex = detect(m).unwrap_or_else(|| panic!("mutation {} escaped the explorer", m.name()));
        assert_eq!(
            cex.violation.invariant,
            intended_invariant(m),
            "mutation {} caught by the wrong invariant ({})",
            m.name(),
            cex.violation,
        );
        assert!(
            !cex.script.is_empty() || cex.during_drain,
            "counterexample for {} carries no script",
            m.name()
        );
    }
}

#[test]
fn directed_scripts_are_clean_on_the_real_protocol() {
    // Each mutation's adversarial script exercises a hostile schedule;
    // without the defect seeded, the same schedule must pass. This pins
    // down that detection comes from the defect, not the schedule.
    for m in Mutation::ALL {
        if let Some(cex) = run_script(&m.script(), Scope::script(), MutationSet::default()) {
            panic!(
                "script for {} violates the real protocol: {}",
                m.name(),
                cex.violation
            );
        }
    }
}

#[test]
fn real_protocol_explores_clean_at_smoke_scope() {
    let report = explore(Scope::smoke(), MutationSet::default());
    if let Some(cex) = &report.counterexample {
        panic!("real protocol violated an invariant:\n{cex}");
    }
    // The smoke scope is the floor CI leans on in debug builds. The
    // explored graph is pinned exactly: a change in either count means
    // the adversary gained or lost moves, or the endpoints' behaviour
    // changed.
    assert_eq!(
        (report.states, report.transitions),
        (1_607, 3_546),
        "smoke scope's explored graph moved"
    );
    assert!(report.drains > 0, "no quiescent state was drain-checked");
}

#[test]
fn counterexample_scripts_replay_to_the_same_violation() {
    // Take a mutation caught via its directed script, round-trip the
    // script through the text form, and replay: same invariant.
    let m = Mutation::AcceptStale;
    let cex = detect(m).expect("accept_stale must be caught");
    let text = cex
        .script
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    let parsed = parse_script(&text).expect("rendered script re-parses");
    assert_eq!(parsed, cex.script);
    let replayed = run_script(&parsed, Scope::script(), m.set())
        .expect("replayed script reproduces the violation");
    assert_eq!(replayed.violation.invariant, cex.violation.invariant);
}

#[test]
fn action_display_and_parse_round_trip() {
    let acts = [
        Action::Publish,
        Action::Update { idx: 1 },
        Action::Withdraw { idx: 0 },
        Action::EmitHot,
        Action::EmitCycle,
        Action::EmitSummary,
        Action::DeliverData { rx: 2 },
        Action::DeliverDataLast { rx: 0 },
        Action::DupData { rx: 1 },
        Action::DropData { rx: 0 },
        Action::ClearData { rx: 1 },
        Action::PollFeedback { rx: 0 },
        Action::DeliverFeedback { rx: 1 },
        Action::DropFeedback { rx: 0 },
        Action::Expire { rx: 2 },
        Action::Tick,
        Action::Crash { rx: 1 },
    ];
    for act in acts {
        let rendered = act.to_string();
        let parsed: Action = rendered.parse().unwrap_or_else(|e| {
            panic!("`{rendered}` does not re-parse: {e}");
        });
        assert_eq!(parsed, act, "`{rendered}` round-trips");
    }
    // Scripts tolerate blank lines and comments.
    let script = parse_script("# adversary\npublish\n\ntick\ndeliver-data 0\n")
        .expect("commented script parses");
    assert_eq!(
        script,
        vec![Action::Publish, Action::Tick, Action::DeliverData { rx: 0 }]
    );
}

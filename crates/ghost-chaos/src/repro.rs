//! Replayable repros: the shared pieces of every mode's `repro.json`
//! codec. Each [`crate::sweep::Sweep`] encodes its case as one document
//! tagged with the mode's `"kind"` (fault-plan combos predate the tag
//! and carry none), and `--replay` reads the tag once to pick the mode.
//!
//! The format is hand-rolled JSON (the offline build has no serde);
//! parsing reuses the `ghost-trace` JSON reader. Seeds are encoded as
//! decimal strings because the reader parses numbers as `f64`, which
//! would silently round seeds above 2⁵³.

use crate::run::PolicyKind;
use ghost_lab::scenario::fault_spec_line;
use ghost_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use ghost_sim::topology::CpuId;
use ghost_trace::json::{self, Json};

/// Renders a repro document: the `kind` tag (if any) first, then one
/// `"key": value` line per field. Values are already JSON text.
pub(crate) fn document(kind: Option<&str>, fields: &[(&str, String)]) -> String {
    let tag = kind.map(|k| ("kind", string(k)));
    let lines: Vec<String> = tag
        .iter()
        .chain(fields)
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// A JSON string literal.
pub(crate) fn string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// A JSON array of pre-rendered items, one per line inside a document.
pub(crate) fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.is_empty() {
        "[]".into()
    } else {
        format!("[\n    {}\n  ]", items.join(",\n    "))
    }
}

/// The document's `kind` tag; `None` for an untagged fault-plan combo.
pub(crate) fn kind(doc: &Json) -> Result<Option<&str>, String> {
    match doc.get("kind") {
        None => Ok(None),
        Some(k) => k.as_str().map(Some).ok_or("'kind' is not a string".into()),
    }
}

/// Fails unless the document is tagged `want`.
pub(crate) fn expect_kind(doc: &Json, want: Option<&str>) -> Result<(), String> {
    match kind(doc)? {
        got if got == want => Ok(()),
        got => Err(format!("repro kind is {got:?}, want {want:?}")),
    }
}

/// A required numeric field.
pub(crate) fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// A required string field.
pub(crate) fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// The decimal-string `seed` field.
pub(crate) fn seed(v: &Json) -> Result<u64, String> {
    field_str(v, "seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad seed: {e}"))
}

/// A policy field, restricted to the policies `allowed` accepts.
pub(crate) fn policy(
    v: &Json,
    key: &str,
    allowed: impl Fn(PolicyKind) -> bool,
) -> Result<PolicyKind, String> {
    let name = field_str(v, key)?;
    PolicyKind::from_name(name)
        .filter(|&p| allowed(p))
        .ok_or_else(|| format!("unsupported {key} '{name}'"))
}

/// A fault plan as a JSON array, one event per line.
pub(crate) fn plan_to_json(plan: &FaultPlan) -> String {
    array(plan.events.iter().map(fault_to_json))
}

/// The document's `plan` array.
pub(crate) fn plan_from_json(doc: &Json) -> Result<FaultPlan, String> {
    let events = doc
        .get("plan")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'plan'")?
        .iter()
        .map(fault_from_json)
        .collect::<Result<_, _>>()?;
    Ok(FaultPlan { events })
}

/// Renders a `name k=v ...` spec line as one JSON object: the bare word
/// becomes `"name_key": "name"` and each `k=v` a field, numeric unless
/// `k` is one of the `quoted` (decimal-string) keys.
pub(crate) fn spec_to_json(spec: &str, name_key: &str, quoted: &[&str]) -> String {
    let fields: Vec<String> = spec
        .split(' ')
        .map(|word| match word.split_once('=') {
            Some((k, v)) if quoted.contains(&k) => format!("\"{k}\": \"{v}\""),
            Some((k, v)) => format!("\"{k}\": {v}"),
            None => format!("\"{name_key}\": \"{word}\""),
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn fault_to_json(fe: &FaultEvent) -> String {
    let spec = fault_spec_line(fe);
    spec_to_json(spec.trim_start_matches("fault "), "kind", &[])
}

fn fault_from_json(v: &Json) -> Result<FaultEvent, String> {
    let at = field_u64(v, "at")?;
    let kind_name = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault without 'kind'")?;
    let cpu = || field_u64(v, "cpu").map(|c| CpuId(c as u16));
    let kind = match kind_name {
        "agent-crash" => FaultKind::AgentCrash { cpu: cpu()? },
        "agent-hang" => FaultKind::AgentHang {
            cpu: cpu()?,
            dur: field_u64(v, "dur")?,
        },
        "agent-slow" => FaultKind::AgentSlow {
            cpu: cpu()?,
            dur: field_u64(v, "dur")?,
            factor: field_u64(v, "factor")? as u32,
        },
        "queue-overflow" => FaultKind::QueueOverflow {
            dur: field_u64(v, "dur")?,
        },
        "ipi-delay" => FaultKind::IpiDelay {
            dur: field_u64(v, "dur")?,
            extra: field_u64(v, "extra")?,
        },
        "ipi-loss" => FaultKind::IpiLoss {
            dur: field_u64(v, "dur")?,
        },
        "spurious-wakeup" => FaultKind::SpuriousWakeup {
            nth: field_u64(v, "nth")? as u32,
        },
        "tick-skew" => FaultKind::TickSkew {
            dur: field_u64(v, "dur")?,
            extra: field_u64(v, "extra")?,
        },
        "upgrade" => FaultKind::Upgrade,
        other => return Err(format!("unknown fault kind '{other}'")),
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use crate::byzantine::{ByzCombo, ByzOp, ByzantineSweep};
    use crate::lending::{LendingLiveCombo, LendingLiveSweep, LendingSweep};
    use crate::live::{LiveCombo, LiveSweep};
    use crate::run::{Combo, FaultSweep, PolicyKind};
    use crate::sweep::{self, Sweep};
    use ghost_lab::{LendingFault, LendingScenario, LendingWorkload};
    use ghost_sim::faults::{FaultKind, FaultPlan};
    use ghost_sim::time::MILLIS;
    use ghost_sim::topology::CpuId;
    use ghost_trace::json;

    /// The kind tag of the mode `--replay` would pick for `doc`.
    fn mode_of(doc: &str) -> Option<&'static str> {
        sweep::mode_of(&json::parse(doc).unwrap()).unwrap().kind()
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let combo = Combo {
            policy: PolicyKind::Shinjuku,
            seed: u64::MAX - 7, // would not survive an f64 round trip
            plan: FaultPlan::from_events([
                (MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) }),
                (
                    2 * MILLIS,
                    FaultKind::AgentHang {
                        cpu: CpuId(2),
                        dur: MILLIS,
                    },
                ),
                (
                    3 * MILLIS,
                    FaultKind::AgentSlow {
                        cpu: CpuId(3),
                        dur: MILLIS,
                        factor: 4,
                    },
                ),
                (4 * MILLIS, FaultKind::QueueOverflow { dur: MILLIS }),
                (
                    5 * MILLIS,
                    FaultKind::IpiDelay {
                        dur: MILLIS,
                        extra: 100,
                    },
                ),
                (6 * MILLIS, FaultKind::IpiLoss { dur: MILLIS }),
                (7 * MILLIS, FaultKind::SpuriousWakeup { nth: 3 }),
                (
                    8 * MILLIS,
                    FaultKind::TickSkew {
                        dur: MILLIS,
                        extra: 50,
                    },
                ),
                (9 * MILLIS, FaultKind::Upgrade),
            ]),
            horizon: 120 * MILLIS,
            threads: 5,
        };
        let doc = FaultSweep::FAULTS.encode(&combo);
        assert_eq!(mode_of(&doc), None);
        assert_eq!(FaultSweep::FAULTS.parse(&doc).expect("parses"), combo);
    }

    #[test]
    fn every_byzantine_op_round_trips() {
        let combo = ByzCombo {
            victim: PolicyKind::PerCpu,
            seed: u64::MAX - 11, // would not survive an f64 round trip
            ops: vec![
                ByzOp::CommitForgedCpu { cpu: 999 },
                ByzOp::CommitForeignTid { tid: u32::MAX },
                ByzOp::CommitStaleSeq,
                ByzOp::CommitAtomicMixed { cpu: 300 },
                ByzOp::RecallForged { cpu: u16::MAX },
                ByzOp::QueueDestroyDefault,
                ByzOp::QueueAssociateForged { tid: 7, queue: 250 },
                ByzOp::QueueWakeupForged { tid: 9_999 },
                ByzOp::PntPushForeign { tid: 40 },
                ByzOp::PingForged { cpu: 8 },
                ByzOp::AttachForged { tid: 0 },
                ByzOp::StatusWrite {
                    tid: 1,
                    value: u64::MAX, // would not survive an f64 round trip
                },
                ByzOp::StatusReadForged { tid: 5 },
                ByzOp::HintForged { tid: 4_096 },
                ByzOp::UpgradeWithoutStage,
                ByzOp::DestroyTwice,
                ByzOp::CreateOverlapping { cpu: 1 },
            ],
        };
        let doc = ByzantineSweep.encode(&combo);
        assert_eq!(mode_of(&doc), Some("byzantine"));
        assert_eq!(ByzantineSweep.parse(&doc).expect("parses"), combo);
    }

    #[test]
    fn every_kind_round_trips_and_rejects_the_others() {
        let faults = Combo {
            policy: PolicyKind::PerCpu,
            seed: 0,
            plan: FaultPlan::none(),
            horizon: MILLIS,
            threads: 1,
        };
        let live = LiveCombo {
            policy: PolicyKind::PerCpu,
            seed: u64::MAX - 3,
            plan: FaultPlan::from_events([(50 * MILLIS, FaultKind::AgentCrash { cpu: CpuId(0) })]),
            requests: 60_000,
            cpus: 2,
        };
        let lending = LendingScenario::new(
            PolicyKind::Shinjuku,
            LendingWorkload::FlashCrowd,
            LendingFault::RevokeDuringReconstruct,
            u64::MAX - 5,
            120 * MILLIS,
        );
        let lending_live = LendingLiveCombo {
            policy: PolicyKind::PerCpu,
            fault: LendingFault::RmCrash,
            seed: u64::MAX - 9,
            requests: 60_000,
        };
        let docs = [
            FaultSweep::FAULTS.encode(&faults),
            LiveSweep.encode(&live),
            LendingSweep.encode(&lending),
            LendingLiveSweep.encode(&lending_live),
        ];
        assert_eq!(FaultSweep::FAULTS.parse(&docs[0]).unwrap(), faults);
        assert_eq!(LiveSweep.parse(&docs[1]).unwrap(), live);
        assert_eq!(LendingSweep.parse(&docs[2]).unwrap(), lending);
        assert_eq!(LendingLiveSweep.parse(&docs[3]).unwrap(), lending_live);
        // Each document names its own mode, and every other decoder
        // rejects it.
        let modes = [None, Some("live"), Some("lending"), Some("lending-live")];
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(mode_of(doc), modes[i]);
            assert_eq!(FaultSweep::FAULTS.parse(doc).is_ok(), i == 0);
            assert_eq!(LiveSweep.parse(doc).is_ok(), i == 1);
            assert_eq!(LendingSweep.parse(doc).is_ok(), i == 2);
            assert_eq!(LendingLiveSweep.parse(doc).is_ok(), i == 3);
            assert!(ByzantineSweep.parse(doc).is_err());
        }
    }

    #[test]
    fn decoders_reject_garbage_and_unsupported_policies() {
        for input in ["{}", "not json"] {
            assert!(FaultSweep::FAULTS.parse(input).is_err());
            assert!(ByzantineSweep.parse(input).is_err());
            assert!(LiveSweep.parse(input).is_err());
            assert!(LendingSweep.parse(input).is_err());
            assert!(LendingLiveSweep.parse(input).is_err());
        }
        assert!(sweep::mode_of(&json::parse(r#"{"kind": "nope"}"#).unwrap()).is_err());
        assert!(sweep::mode_of(&json::parse(r#"{"kind": 3}"#).unwrap()).is_err());
        assert!(FaultSweep::FAULTS
            .parse(r#"{"policy": "nope", "seed": "1", "horizon": 1, "threads": 1, "plan": []}"#)
            .is_err());
        assert!(LendingSweep
            .parse(
                r#"{"kind": "lending", "policy": "nope", "workload": "diurnal",
                "fault": "rm-crash", "seed": "1", "horizon": 1}"#
            )
            .is_err());
        // Policies without a live backend are rejected by the live kinds,
        // and core scheduling cannot co-reside with the byzantine enclave.
        assert!(LiveSweep
            .parse(
                r#"{"kind": "live", "policy": "shinjuku", "seed": "1", "requests": 1, "cpus": 1, "plan": []}"#
            )
            .is_err());
        assert!(LendingLiveSweep
            .parse(
                r#"{"kind": "lending-live", "policy": "shinjuku", "fault": "rm-crash",
                "seed": "1", "requests": 1}"#
            )
            .is_err());
        assert!(ByzantineSweep
            .parse(r#"{"kind": "byzantine", "victim": "core-sched", "seed": "1", "ops": []}"#)
            .is_err());
    }
}

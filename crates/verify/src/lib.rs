//! `rita-verify` — an independent static analyzer for graph plans and checkpoints.
//!
//! The compiler (`rita_nn::graph`) emits a plan — schedule, ahead-of-time shapes,
//! buffer lifetimes, an arena — and the serving tier trusts it completely. This crate
//! is the second implementation that makes that trust earned: every property the plan
//! claims is **re-derived from scratch** here, with its own shape calculus
//! (the `shape` module, no calls into `Op::infer_shape`), its own topological-order
//! recomputation, its own allocate/recycle replay, and a node-for-node check that the
//! graph being served is the one `build_graph` emits. Where any derivation disagrees
//! with the plan, the verifier returns a typed [`Diagnostic`] — it never panics on
//! publish-path input.
//!
//! Entry points:
//! - [`verify_plan`] — audit one compiled [`Plan`] against its [`Graph`];
//! - [`verify_with_graph`] — audit a checkpoint against an already-built serving
//!   graph: bindings, emission, and probe-plan compilation;
//! - [`verify_checkpoint`] — audit a checkpoint end-to-end, building the graph the
//!   same way the serving tier does.
//!
//! The verifier's own oracle is the fault injector in the `mutate` module: every
//! [`Corruption`] class must be rejected with a diagnostic from the matching
//! analysis, and untouched plans must verify clean (`tests/verify_properties.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::HashMap;

use rita_core::checkpoint::{Checkpoint, CheckpointError};
use rita_core::graph::{build_graph, POSITIONAL};
use rita_nn::graph::{Graph, Plan, PlanError};

mod checks;
mod emission;
mod mutate;
mod report;
mod shape;

pub use checks::{
    verify_bindings, verify_lifetimes, verify_records, verify_schedule, verify_shapes,
    verify_structure,
};
pub use mutate::{flip_byte, Corruption, Target, ALL};
pub use report::{Analysis, Diagnostic, Report, Severity, VerifyError};

/// Audits one compiled plan against its graph: structure, schedule, shapes, and
/// buffer lifetimes. `lookup` supplies the shapes of externally-bound values
/// (checkpoint tensors by path, the positional table by name) — the same closure the
/// compiler was given, but the verifier re-derives everything else independently.
///
/// Structure errors gate the plan-level analyses (an out-of-range value slot makes
/// the plan tables unindexable), and a non-permutation schedule gates the shape and
/// lifetime walks.
pub fn verify_plan(
    graph: &Graph,
    plan: &Plan,
    lookup: &dyn Fn(&str) -> Option<Vec<usize>>,
) -> Report {
    let mut report = Report::new();
    let structure = verify_structure(graph);
    let unindexable = !structure.is_empty();
    report.extend(structure);
    if unindexable {
        return report;
    }
    report.extend(verify_schedule(graph, &plan.order));
    if !checks::is_permutation(&plan.order, graph.nodes.len()) {
        return report;
    }
    if plan.shapes.len() != graph.values.len()
        || plan.last_use.len() != graph.values.len()
        || plan.in_place.len() != plan.order.len()
    {
        report.push(Diagnostic::error(
            Analysis::Shape,
            "",
            VerifyError::Underivable {
                detail: format!(
                    "plan tables sized {}/{} for {} values, {} in-place marks for {} nodes",
                    plan.shapes.len(),
                    plan.last_use.len(),
                    graph.values.len(),
                    plan.in_place.len(),
                    plan.order.len()
                ),
            },
        ));
        return report;
    }
    let (shape_diags, derived) = verify_shapes(graph, plan, lookup);
    report.extend(shape_diags);
    report.extend(verify_lifetimes(graph, plan, &derived));
    report
}

/// Maps a compiler-side [`PlanError`] (from a probe compilation) into the verifier's
/// taxonomy, so a checkpoint whose plans cannot even compile is still *described*.
fn plan_error_diagnostic(e: PlanError) -> Diagnostic {
    match e {
        PlanError::Cycle(node) => Diagnostic::error(Analysis::Schedule, node, VerifyError::Cycle),
        PlanError::MissingParam(path) => {
            Diagnostic::error(Analysis::Binding, path, VerifyError::MissingParam)
        }
        PlanError::Shape { node, detail } => {
            Diagnostic::error(Analysis::Shape, node, VerifyError::Underivable { detail })
        }
        PlanError::UnknownInput { node, value } => {
            Diagnostic::error(Analysis::Structure, node, VerifyError::UnboundRead { value })
        }
        PlanError::DuplicateNode(id) => {
            Diagnostic::error(Analysis::Structure, id, VerifyError::DuplicateNodeId)
        }
    }
}

/// Audits a checkpoint against an already-built serving graph (the one
/// `rita_infer::InferModel::from_checkpoint` serves): that the configuration is one
/// `build_graph` serves, SSA structure, binding coverage, record dtype soundness
/// (quantization scales and payload/shape agreement), node-for-node agreement with a
/// fresh `build_graph` emission, and full plan verification at two probe input shapes
/// (`(1, channels, max_len)` and `(2, channels, window)`).
pub fn verify_with_graph(ckpt: &Checkpoint, served: &Graph) -> Report {
    audit(ckpt, Some(served))
}

/// Audits a checkpoint end-to-end: builds the serving graph exactly the way the
/// inference tier does (`build_graph`, served as emitted), then runs the full
/// [`verify_with_graph`] battery. This is what `examples/verify.rs` and the
/// publish path call.
pub fn verify_checkpoint(ckpt: &Checkpoint) -> Report {
    audit(ckpt, None)
}

/// The [`verify_with_graph`] battery; `served: None` audits the fresh emission itself.
fn audit(ckpt: &Checkpoint, served: Option<&Graph>) -> Report {
    let mut report = Report::new();
    let config = &ckpt.config;
    let emitted = match build_graph(config, ckpt.task, &ckpt.scheduler) {
        Ok(graph) => graph,
        Err(e) => {
            // An inconsistent config: nothing below is meaningful without a graph to
            // compare against.
            let detail = match e {
                CheckpointError::Corrupted(rule) => rule,
                e => e.to_string(),
            };
            let bad = VerifyError::BadConfig { detail };
            report.push(Diagnostic::error(Analysis::Config, "config", bad));
            return report;
        }
    };
    let served = served.unwrap_or(&emitted);
    let structure = verify_structure(served);
    let unindexable = !structure.is_empty();
    report.extend(structure);
    if unindexable {
        return report;
    }

    let tensor_shapes: HashMap<String, Vec<usize>> =
        ckpt.tensors.iter().map(|(p, t)| (p.clone(), t.shape().to_vec())).collect();
    report.extend(verify_bindings(served, &tensor_shapes));
    report.extend(verify_records(ckpt));
    report.extend(emission::verify_emission(&emitted, served));

    let positional_shape = vec![config.max_windows() + 1, config.d_model];
    let lookup = |name: &str| -> Option<Vec<usize>> {
        if name == POSITIONAL {
            Some(positional_shape.clone())
        } else {
            tensor_shapes.get(name).cloned()
        }
    };
    for input_shape in [[1, config.channels, config.max_len], [2, config.channels, config.window]] {
        match served.compile(&input_shape, &lookup) {
            Ok(plan) => report.extend(verify_plan(served, &plan, &lookup).diagnostics),
            Err(e) => report.push(plan_error_diagnostic(e)),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_nn::graph::{Op, ValueId};

    /// input -> gelu -> gelu -> output, one rank-1 param added at the end.
    fn toy() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("input");
        let w = g.param("w", &[4]);
        let a = g.push("a", Op::Gelu, vec![x]);
        let b = g.push("b", Op::Gelu, vec![a]);
        let y = g.push("y", Op::Add, vec![b, w]);
        g.output = y;
        g
    }

    fn toy_lookup(name: &str) -> Option<Vec<usize>> {
        (name == "w").then(|| vec![4])
    }

    #[test]
    fn clean_toy_plan_verifies_clean() {
        let g = toy();
        let plan = g.compile(&[2, 3, 4], &toy_lookup).unwrap();
        let report = verify_plan(&g, &plan, &toy_lookup);
        assert!(report.is_clean(), "unexpected diagnostics:\n{report}");
    }

    #[test]
    fn swapped_schedule_is_rejected() {
        let g = toy();
        let mut plan = g.compile(&[2, 3, 4], &toy_lookup).unwrap();
        assert!(Corruption::SwapSchedule.apply_to_plan(&g, &mut plan, 0));
        let report = verify_plan(&g, &plan, &toy_lookup);
        assert!(report.has_error_in(Analysis::Schedule), "got:\n{report}");
    }

    #[test]
    fn perturbed_shape_is_rejected() {
        let g = toy();
        let mut plan = g.compile(&[2, 3, 4], &toy_lookup).unwrap();
        assert!(Corruption::PerturbShape.apply_to_plan(&g, &mut plan, 1));
        let report = verify_plan(&g, &plan, &toy_lookup);
        assert!(report.has_error_in(Analysis::Shape), "got:\n{report}");
    }

    #[test]
    fn unbound_read_is_a_structure_error_not_a_panic() {
        let mut g = toy();
        // Sever the param binding: the Add node now reads a value nothing provides.
        g.values[1].binding = None;
        let diags = verify_structure(&g);
        assert!(
            diags.iter().any(|d| matches!(d.error, VerifyError::UnboundRead { .. })),
            "got: {diags:?}"
        );
    }

    /// The checks no mutation class reaches: each case hand-corrupts the toy graph or
    /// its plan once and must draw an error of its variant from its analysis.
    #[test]
    fn hand_corruptions_fire_their_diagnostics() {
        type Case = (&'static str, fn(&mut Graph, &mut Plan), fn(&VerifyError) -> bool, Analysis);
        let cases: [Case; 9] = [
            (
                "two nodes named `a`",
                |g, _| g.nodes[1].id = "a".into(),
                |e| matches!(e, VerifyError::DuplicateNodeId),
                Analysis::Structure,
            ),
            (
                "`b` writes `a`'s output",
                |g, _| g.nodes[1].output = g.nodes[0].output,
                |e| matches!(e, VerifyError::DuplicateProducer),
                Analysis::Structure,
            ),
            (
                "`y` writes the parameter `w`",
                |g, _| g.nodes[2].output = ValueId(1),
                |e| matches!(e, VerifyError::ProducesBoundValue),
                Analysis::Structure,
            ),
            (
                "`b` reads value 99 of 5",
                |g, _| g.nodes[1].inputs[0] = ValueId(99),
                |e| matches!(e, VerifyError::ValueOutOfRange { index: 99 }),
                Analysis::Structure,
            ),
            (
                "the output's producer is gone",
                |g, _| drop(g.nodes.pop()),
                |e| matches!(e, VerifyError::MissingOutput),
                Analysis::Structure,
            ),
            (
                "`a` scheduled twice",
                |_, plan| plan.order[1] = plan.order[0],
                |e| matches!(e, VerifyError::ScheduleEntry { position: 1, .. }),
                Analysis::Schedule,
            ),
            (
                "`a` reads `b`, which reads `a`",
                |g, _| g.nodes[0].inputs[0] = ValueId(3),
                |e| matches!(e, VerifyError::Cycle),
                Analysis::Schedule,
            ),
            (
                "the input's table entry disagrees with the plan's input shape",
                |g, plan| plan.shapes[g.input.0] = vec![2, 3, 5],
                |e| matches!(e, VerifyError::InputShape { .. }),
                Analysis::Shape,
            ),
            (
                "`w` planned at a shape the lookup does not give",
                |_, plan| plan.shapes[1] = vec![5],
                |e| matches!(e, VerifyError::ParamShapeMismatch { .. }),
                Analysis::Binding,
            ),
        ];
        for (what, corrupt, is_variant, analysis) in cases {
            let mut g = toy();
            let mut plan = g.compile(&[2, 3, 4], &toy_lookup).unwrap();
            corrupt(&mut g, &mut plan);
            let report = verify_plan(&g, &plan, &toy_lookup);
            assert!(
                report.diagnostics.iter().any(|d| {
                    d.severity == Severity::Error && d.analysis == analysis && is_variant(&d.error)
                }),
                "{what}: expected a {} error, got:\n{report}",
                analysis.name()
            );
        }
    }

    #[test]
    fn report_json_shape() {
        let mut report = Report::new();
        assert_eq!(report.to_json(), r#"{"clean":true,"errors":0,"warnings":0,"diagnostics":[]}"#);
        report.push(Diagnostic::error(Analysis::Binding, "w", VerifyError::MissingParam));
        let json = report.to_json();
        assert!(json.contains(r#""clean":false"#), "{json}");
        assert!(json.contains(r#""analysis":"binding""#), "{json}");
    }
}

//! Analysis 4 — emission.
//!
//! The serving tier runs the graph `rita_core::graph::build_graph` emits for a
//! checkpoint, with no pass in between. This analysis re-emits that graph and checks
//! the one under audit against it node for node: the same ID, the same op (constants
//! included), and the same input values by name, plus the same output.
//! A swapped operand, an altered op constant, or a missing or extra node surfaces as a
//! [`VerifyError::EmissionMismatch`] naming the first node that differs.

use rita_nn::graph::{Graph, Node};

use crate::report::{Analysis, Diagnostic, VerifyError};

fn input_names<'g>(graph: &'g Graph, node: &Node) -> Vec<&'g str> {
    node.inputs.iter().map(|v| graph.values[v.0].name.as_str()).collect()
}

fn describe(graph: &Graph, node: &Node) -> String {
    format!("{} = {:?}({})", node.id, node.op, input_names(graph, node).join(", "))
}

/// Checks `served` against `emitted`, the fresh `build_graph` output for the same
/// checkpoint. Both graphs must be structurally sound (every value slot in range).
pub(crate) fn verify_emission(emitted: &Graph, served: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut mismatch = |node: &str, detail: String| {
        diags.push(Diagnostic::error(
            Analysis::Emission,
            node,
            VerifyError::EmissionMismatch { detail },
        ));
    };
    let differing = emitted.nodes.iter().zip(&served.nodes).find(|(e, s)| {
        e.id != s.id || e.op != s.op || input_names(emitted, e) != input_names(served, s)
    });
    if let Some((e, s)) = differing {
        let detail = format!("emitted {} but served {}", describe(emitted, e), describe(served, s));
        mismatch(&s.id, detail);
    } else if emitted.nodes.len() != served.nodes.len() {
        let detail = format!(
            "served graph has {} nodes, the emission {}",
            served.nodes.len(),
            emitted.nodes.len()
        );
        mismatch("", detail);
    }
    let (e, s) = (&emitted.values[emitted.output.0].name, &served.values[served.output.0].name);
    if e != s {
        mismatch("output", format!("output is '{s}', the emission's is '{e}'"));
    }
    diags
}

//! The named module tree: parameter paths, visitors, and the [`Module`] trait.
//!
//! Every trainable component implements [`Module::visit_params`], reporting its
//! parameters depth-first under dot-separated paths (`"encoder.layers.0.q_proj.weight"`).
//! Everything else — flat parameter lists for optimisers, named lists for checkpoints,
//! parameter counting — is derived from that single visitor.
//!
//! ## Path grammar
//!
//! A path is a sequence of dot-separated segments. Segments are either field names
//! (`weight`, `q_proj`) or decimal indices for homogeneous collections (`layers.0`).
//! Segments never contain dots. Paths are stable across process restarts for the same
//! architecture: they are derived from the module structure, not from construction order
//! counters or node ids, which is what makes them usable as checkpoint keys.
//!
//! ## Visitor invariants
//!
//! * A module visits **all** of its trainable parameters, in a deterministic order.
//! * A parameter shared between two sites (tied weights) is reported at *every* site —
//!   deduplication by node identity is the consumer's job (the optimisers dedupe so a
//!   tied weight is stepped once; checkpoints store one copy per path, which round-trips
//!   because every path is written and re-assigned).
//! * Non-trainable state that must survive a round-trip (batch-norm running
//!   statistics) is reported through [`Module::visit_buffers`] /
//!   [`Module::visit_buffers_mut`] instead.

use std::fmt;

use crate::var::Var;
use rita_tensor::NdArray;

/// A dot-separated path identifying one parameter within a module tree.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamPath(String);

impl ParamPath {
    /// The empty root path.
    pub fn root() -> Self {
        Self(String::new())
    }

    /// Builds a path directly from its string form (used when deserialising).
    pub fn new(path: impl Into<String>) -> Self {
        Self(path.into())
    }

    /// Returns the path extended by one segment.
    pub fn join(&self, segment: &str) -> Self {
        debug_assert!(!segment.contains('.'), "path segments must not contain dots: {segment}");
        if self.0.is_empty() {
            Self(segment.to_string())
        } else {
            Self(format!("{}.{segment}", self.0))
        }
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ParamPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ParamPath {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

/// Depth-first visitor over a module tree's trainable parameters.
///
/// Modules receive a visitor in [`Module::visit_params`] and either report leaves
/// ([`ParamVisitor::leaf`]) or descend into children under a path segment
/// ([`ParamVisitor::scope`]).
pub struct ParamVisitor<'a> {
    path: ParamPath,
    f: &'a mut dyn FnMut(&ParamPath, &Var),
}

impl<'a> ParamVisitor<'a> {
    /// Creates a visitor rooted at the empty path.
    pub fn new(f: &'a mut dyn FnMut(&ParamPath, &Var)) -> Self {
        Self { path: ParamPath::root(), f }
    }

    /// Reports one parameter under `name`.
    pub fn leaf(&mut self, name: &str, var: &Var) {
        let path = self.path.join(name);
        (self.f)(&path, var);
    }

    /// Visits a child module under the path segment `name`.
    pub fn scope(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let saved = self.path.clone();
        self.path = self.path.join(name);
        f(self);
        self.path = saved;
    }

    /// Visits an indexed child (`name.i`), for homogeneous collections.
    pub fn scope_indexed(&mut self, name: &str, index: usize, f: impl FnOnce(&mut Self)) {
        self.scope(name, |v| v.scope(&index.to_string(), f));
    }
}

/// Read-only visitor over a module tree's non-trainable buffers (checkpoint save side).
pub struct BufferVisitor<'a> {
    path: ParamPath,
    f: &'a mut dyn FnMut(&ParamPath, &NdArray),
}

impl<'a> BufferVisitor<'a> {
    /// Creates a visitor rooted at the empty path.
    pub fn new(f: &'a mut dyn FnMut(&ParamPath, &NdArray)) -> Self {
        Self { path: ParamPath::root(), f }
    }

    /// Reports one buffer under `name`.
    pub fn leaf(&mut self, name: &str, buffer: &NdArray) {
        let path = self.path.join(name);
        (self.f)(&path, buffer);
    }

    /// Visits a child module under the path segment `name`.
    pub fn scope(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let saved = self.path.clone();
        self.path = self.path.join(name);
        f(self);
        self.path = saved;
    }

    /// Visits an indexed child (`name.i`).
    pub fn scope_indexed(&mut self, name: &str, index: usize, f: impl FnOnce(&mut Self)) {
        self.scope(name, |v| v.scope(&index.to_string(), f));
    }
}

/// Mutable visitor over non-trainable buffers (checkpoint restore side).
pub struct BufferVisitorMut<'a> {
    path: ParamPath,
    f: &'a mut dyn FnMut(&ParamPath, &mut NdArray),
}

impl<'a> BufferVisitorMut<'a> {
    /// Creates a visitor rooted at the empty path.
    pub fn new(f: &'a mut dyn FnMut(&ParamPath, &mut NdArray)) -> Self {
        Self { path: ParamPath::root(), f }
    }

    /// Reports one buffer under `name` for in-place replacement.
    pub fn leaf(&mut self, name: &str, buffer: &mut NdArray) {
        let path = self.path.join(name);
        (self.f)(&path, buffer);
    }

    /// Visits a child module under the path segment `name`.
    pub fn scope(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let saved = self.path.clone();
        self.path = self.path.join(name);
        f(self);
        self.path = saved;
    }

    /// Visits an indexed child (`name.i`).
    pub fn scope_indexed(&mut self, name: &str, index: usize, f: impl FnOnce(&mut Self)) {
        self.scope(name, |v| v.scope(&index.to_string(), f));
    }
}

/// A trainable component that exposes its parameters as a named tree.
pub trait Module {
    /// Visits every trainable parameter depth-first (see the module-level invariants).
    fn visit_params(&self, visitor: &mut ParamVisitor<'_>);

    /// Visits non-trainable state that checkpoints must persist (default: none).
    fn visit_buffers(&self, _visitor: &mut BufferVisitor<'_>) {}

    /// Mutable counterpart of [`Module::visit_buffers`], used on checkpoint restore.
    fn visit_buffers_mut(&mut self, _visitor: &mut BufferVisitorMut<'_>) {}

    /// All trainable parameters of this module (and its children), in visitor order.
    /// Shared parameters appear once per site; consumers that must not double-count
    /// dedupe by [`Var::id`].
    fn parameters(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut f = |_: &ParamPath, var: &Var| out.push(var.clone());
        self.visit_params(&mut ParamVisitor::new(&mut f));
        out
    }

    /// All `(path, parameter)` pairs of this module, in visitor order.
    fn named_parameters(&self) -> Vec<(ParamPath, Var)> {
        let mut out = Vec::new();
        let mut f = |path: &ParamPath, var: &Var| out.push((path.clone(), var.clone()));
        self.visit_params(&mut ParamVisitor::new(&mut f));
        out
    }

    /// All `(path, buffer)` pairs of this module, in visitor order.
    fn named_buffers(&self) -> Vec<(ParamPath, NdArray)> {
        let mut out = Vec::new();
        let mut f = |path: &ParamPath, buf: &NdArray| out.push((path.clone(), buf.clone()));
        self.visit_buffers(&mut BufferVisitor::new(&mut f));
        out
    }

    /// Total number of scalar parameters (shared parameters counted once).
    fn num_parameters(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        let mut f = |_: &ParamPath, var: &Var| {
            if seen.insert(var.id()) {
                total += var.len();
            }
        };
        self.visit_params(&mut ParamVisitor::new(&mut f));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tied {
        w: Var,
    }

    impl Module for Tied {
        fn visit_params(&self, v: &mut ParamVisitor<'_>) {
            v.scope("embed", |v| v.leaf("weight", &self.w));
            v.scope("decode", |v| v.leaf("weight", &self.w));
        }
    }

    #[test]
    fn paths_join_and_display() {
        let p = ParamPath::root().join("encoder").join("layers").join("0").join("weight");
        assert_eq!(p.as_str(), "encoder.layers.0.weight");
        assert_eq!(p.to_string(), "encoder.layers.0.weight");
        assert_eq!(ParamPath::from("a.b"), ParamPath::new("a.b"));
        assert!(ParamPath::root().as_str().is_empty());
    }

    #[test]
    fn visitor_scopes_nest_and_restore() {
        let w = Var::parameter(NdArray::ones(&[2]));
        let mut paths = Vec::new();
        let mut f = |p: &ParamPath, _: &Var| paths.push(p.to_string());
        let mut v = ParamVisitor::new(&mut f);
        v.scope("outer", |v| {
            v.leaf("a", &w);
            v.scope_indexed("items", 3, |v| v.leaf("b", &w));
            v.leaf("c", &w);
        });
        v.leaf("top", &w);
        assert_eq!(paths, vec!["outer.a", "outer.items.3.b", "outer.c", "top"]);
    }

    #[test]
    fn tied_weights_appear_per_site_but_count_once() {
        let tied = Tied { w: Var::parameter(NdArray::ones(&[4])) };
        assert_eq!(tied.parameters().len(), 2);
        let named = tied.named_parameters();
        assert_eq!(named[0].0.as_str(), "embed.weight");
        assert_eq!(named[1].0.as_str(), "decode.weight");
        assert_eq!(named[0].1.id(), named[1].1.id());
        assert_eq!(tied.num_parameters(), 4, "shared weight counted once");
    }
}

// Package repro is a from-scratch Go implementation of network
// backboning with noisy data, reproducing Coscia & Neffke (ICDE 2017).
//
// A network backbone is the subset of a weighted graph's edges whose
// weights are too strong to be explained by chance, given how much
// weight their endpoints send and receive overall. This package's main
// algorithm — the Noise-Corrected (NC) backbone — models edge weights
// as sums of unitary interactions, estimates each edge's deviation from
// a bilateral null model together with a Bayesian posterior variance,
// and keeps edges whose deviation exceeds δ standard deviations.
//
// The package also ships every baseline the paper compares against
// (Disparity Filter, High Salience Skeleton, Doubly Stochastic,
// Maximum Spanning Tree, naive thresholding, k-core) behind a single
// method registry and an options-driven pipeline:
//
//	g, err := repro.ReadCSV(f, true)                 // src,dst,weight lines
//	res, err := repro.Backbone(g, repro.WithMethod("nc"), repro.WithDelta(1.64))
//	err = res.Backbone.WriteCSV(out)                 // δ = 1.64 ≈ p 0.05
//
// Every algorithm self-registers a Method descriptor (name, parameter
// schema, scoring/extraction capabilities) in a central registry, so
// callers swap algorithms by name:
//
//	res, err := repro.Backbone(g, repro.WithMethod("df"), repro.WithAlpha(0.01))
//	s, err := repro.Score(g, repro.WithMethod("hss"))  // unpruned table
//	all, err := repro.BackboneAll(g, nil, repro.WithTopK(500))
//
// All scoring methods produce a Scores table whose Threshold, TopK and
// TopFraction prune to a backbone while preserving the node set, so
// methods can be compared at identical backbone sizes (the paper's
// protocol); BackboneAll runs that comparison concurrently. Methods()
// lists the registered algorithms and their parameters.
package repro

import (
	"io"

	_ "repro/internal/backbone" // self-registers the baseline methods
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/multilayer"
)

// Graph is an immutable weighted graph, directed or undirected.
// Build one with NewBuilder or ReadCSV.
type Graph = graph.Graph

// Builder accumulates nodes and weighted edges and produces a Graph.
type Builder = graph.Builder

// Edge is one weighted connection; for undirected graphs Src <= Dst.
type Edge = graph.Edge

// EdgeKey identifies an edge by its (order-normalized) endpoints.
type EdgeKey = graph.EdgeKey

// Scores is a per-edge significance table produced by any backboning
// method. Prune it with Threshold, TopK or TopFraction.
type Scores = filter.Scores

// Update is one incremental edge change (upsert or delete) applied to
// a Delta overlay; see Graph.WithUpdates.
type Update = graph.Update

// Delta is a mutable overlay of pending edge updates over an immutable
// Graph; materialize with its Graph method. Obtain one with
// Graph.WithUpdates or graph-package NewDelta.
type Delta = graph.Delta

// Dirty records what a Delta materialization invalidated relative to
// the previous one; feed it to WithDirtyScores to re-score only the
// affected rows.
type Dirty = graph.Dirty

// EdgeStats holds the Noise-Corrected statistics of a single edge:
// null expectation, lift, symmetrized score, posterior variance.
type EdgeStats = core.EdgeStats

// NewBuilder returns a builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder { return graph.NewBuilder(directed) }

// ReadCSV parses a "src,dst,weight" edge list into a Graph.
//
// Deprecated: use ReadGraph, which adds format selection, content
// sniffing and transparent gzip decompression.
func ReadCSV(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadCSV(r, directed)
}

// NCEdge evaluates the NC statistics of a single (possibly
// hypothetical) edge from its weight, endpoint strengths and network
// total — e.g. to test whether two edges differ significantly.
func NCEdge(weight, outStrength, inStrength, total float64) EdgeStats {
	return core.ComputeEdge(weight, outStrength, inStrength, total)
}

// DeltaToPValue converts an NC δ threshold to the one-tailed p-value
// it approximates; PValueToDelta is its inverse.
func DeltaToPValue(delta float64) float64 { return core.DeltaToPValue(delta) }

// PValueToDelta converts a one-tailed p-value to the corresponding δ.
func PValueToDelta(p float64) float64 { return core.PValueToDelta(p) }

// Comparison is a two-sample z-test between two edges' NC scores.
type Comparison = core.Comparison

// CompareEdges tests whether two edges differ significantly in strength
// relative to their null expectations (the paper's suggested use of the
// NC confidence intervals beyond pruning).
func CompareEdges(a, b EdgeStats) Comparison { return core.CompareEdges(a, b) }

// EdgeChange describes a significant edge evolution between two
// observations of the same network.
type EdgeChange = core.EdgeChange

// Changes tests every edge present in either observation for a
// significant change in noise-corrected strength, returning those with
// two-tailed p-value at most alpha. It distinguishes real changes from
// the spurious swings that raw weight differences cannot separate —
// the paper's Section-VII research direction.
func Changes(before, after *Graph, alpha float64) ([]EdgeChange, error) {
	return core.Changes(before, after, alpha)
}

// DOTOptions controls WriteDOT rendering (node colors, sizes, widths).
type DOTOptions = graph.DOTOptions

// Bipartite is a two-mode incidence structure (e.g. occupations ×
// skills) whose one-mode projection feeds the backboning algorithms.
type Bipartite = graph.Bipartite

// NewBipartite returns an empty two-mode incidence structure.
func NewBipartite() *Bipartite { return graph.NewBipartite() }

// Multilayer is a set of network layers over a shared node set, with a
// coupled NC scorer that blends each layer's null model with the
// relation's frequency in the other layers — the paper's Section-VII
// multilayer extension. See internal/multilayer for the model.
type Multilayer = multilayer.Multilayer

// NewMultilayer returns an empty multilayer network over n shared nodes.
func NewMultilayer(n int) *Multilayer { return multilayer.New(n) }

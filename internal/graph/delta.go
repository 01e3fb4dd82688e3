package graph

// Incremental updates: a Delta is a mutable overlay of pending edge
// upserts/deletes over an immutable base Graph. Updates accumulate in a
// small patch log, sorted by canonical (Src, Dst) key; materializing
// merges the *previous* materialization with the just-applied batch in
// segment-sized memmoves — O(m) bytes moved but only O(b log m) key
// work for a batch of b updates — and patches offsets, strengths and
// the isolate count in O(b + n) instead of recounting the edge slice.
// The global total and the arc scatter are deferred (lazyTotal,
// lazyArcs): frontier re-scoring touches neither. Once the patch
// outgrows a compaction limit the materialized graph (arcs included)
// becomes the new base and the patch resets.
//
// Exclusive mode (SetExclusive) adds move semantics for callers — the
// daemon's sessions, and any single-consumer serving loop — that drop
// generation N-1 the moment generation N exists: instead of copying the
// previous materialization's arrays, Graph() patches them in place and
// re-tags them under a fresh *Graph header. A pure re-weight batch then
// moves no edge bytes at all, and an insert moves only the tail after
// the insertion point. The base graph is never mutated (the first
// materialization after construction or compaction still copies), so
// compaction, the patch fold and strength refolds keep their immutable
// source of truth.
//
// Bit-identity contract: a materialized graph is indistinguishable —
// down to the last float bit — from a cold Build over the same final
// edge set. That holds because (a) edges stay in canonical order, so
// scatterArcs produces identical arcs; (b) the global total is refolded
// over all edges in canonical order (float addition is not associative,
// so the fold cannot be patched incrementally without drifting) — the
// fold is merely deferred to the first TotalWeight call; and (c) each
// node's strength is a left fold of its own incident edge weights in
// canonical order (see accumulate in builder.go) — nodes the batch
// never touches keep their previous materialization's values, which are
// by induction the exact canonical folds, and touched nodes are
// refolded in O(deg) by merging base arcs with their patch incidences
// in arc (To) order, which for a single node is exactly canonical
// incident-edge order.

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Update sets the weight of one edge relative to a Delta's base graph.
// Weight > 0 sets the edge to exactly that weight (inserting it if
// absent); Weight == 0 deletes it. Node IDs must exist in the base —
// the node set is fixed at build time. For undirected graphs the pair
// is canonicalized (order does not matter).
type Update struct {
	Src, Dst int32
	Weight   float64
}

// Dirty records what changed between two materializations: For is the
// newly materialized graph, Base the previous one, and Nodes the sorted
// unique endpoints of every update applied in between. It is the input
// filter.RescoreDirty needs to re-score only the affected rows of a
// score table computed for Base. Diff maps the two graphs' score-table
// rows onto each other; every record Delta.Graph returns carries one
// (only hand-built records lack it).
//
// Exclusive reports that the overlay runs in exclusive mode (see
// SetExclusive): Base has been surrendered — its arrays may already
// back For — and any score table computed for it may likewise be folded
// into its successor in place rather than copied.
type Dirty struct {
	Base      *Graph
	For       *Graph
	Nodes     []int32
	Diff      *RowDiff
	Exclusive bool
}

// RowDiff is the row-level diff between Base's and For's canonical edge
// slices, recorded during materialization. Copies are the runs of rows
// present in both graphs under the same edge key and weight, ascending
// and disjoint on both sides; Changed lists For's rows that were
// inserted or re-weighted (an incremental materialization also lists
// rows the batch re-set to their old weight); together they cover
// For's rows exactly once. Frontier lists every For row incident to a
// node in Dirty.Nodes, Changed included. Both row lists are sorted
// ascending.
type RowDiff struct {
	Copies   []SegCopy
	Changed  []int32
	Frontier []int32
}

// SegCopy maps the contiguous row run [BaseLo, BaseLo+Len) of
// Dirty.Base onto rows [ForLo, ForLo+Len) of Dirty.For.
type SegCopy struct {
	BaseLo, ForLo, Len int32
}

// DefaultCompactLimit is the patch size at which Graph() folds the
// overlay into a fresh base CSR. 4096 keeps the per-read merge overhead
// bounded (the patch is a single cache-resident run) while amortizing
// the O(m) arc scatter over thousands of updates.
const DefaultCompactLimit = 4096

// Delta accumulates edge updates over an immutable base Graph. It is
// not safe for concurrent use: callers that share one (e.g. daemon
// sessions) must serialize access.
type Delta struct {
	base *Graph
	last *Graph // previous Graph() result; base before the first call
	// patch is the pending overlay: canonical-key sorted, deduplicated,
	// Weight == 0 marking a deletion.
	patch []Edge
	// sinceLast is the canonical merged batch applied since the last
	// materialization — the part of patch the previous Graph() result
	// has not absorbed yet.
	sinceLast []Edge
	// recent collects (unsorted, with duplicates) the endpoints touched
	// since the last materialization — the Dirty.Nodes source.
	recent []int32
	limit  int
	// exclusive enables move semantics: see SetExclusive.
	exclusive bool

	cached      *Graph
	cachedDirty Dirty
}

// NewDelta returns an empty overlay on base. limit is the compaction
// threshold; <= 0 selects DefaultCompactLimit.
func NewDelta(base *Graph, limit int) *Delta {
	if limit <= 0 {
		limit = DefaultCompactLimit
	}
	return &Delta{base: base, last: base, limit: limit}
}

// WithUpdates returns a Delta over g with one batch of updates already
// applied — the single-call entry point for callers that do not manage
// a long-lived overlay.
func (g *Graph) WithUpdates(updates []Update) (*Delta, error) {
	d := NewDelta(g, 0)
	if err := d.Apply(updates); err != nil {
		return nil, err
	}
	return d, nil
}

// SetExclusive declares that the caller is the overlay's only consumer
// and retains no materialization beyond the latest: after each Graph()
// call the previous result — and any score table computed for it — is
// surrendered, and the next materialization may cannibalize its arrays
// in place instead of copying them (filter.RescoreDirty honours the
// same surrender for score columns via Dirty.Exclusive). The base graph
// is never mutated. Violating the contract — reading a surrendered
// graph or table after a later Graph() call — yields garbage, not a
// crash, so enable this only where an owner serializes the whole
// read/update cycle, as the daemon's session lock does.
func (d *Delta) SetExclusive(on bool) { d.exclusive = on }

// Base returns the graph the pending patch currently applies to (it
// advances on compaction).
func (d *Delta) Base() *Graph { return d.base }

// Pending returns the number of distinct edges in the pending patch.
func (d *Delta) Pending() int { return len(d.patch) }

// Apply merges one batch of updates into the pending patch. Set
// semantics: within the batch the last update to a pair wins, and a
// later batch overrides an earlier one. The whole batch is validated
// before any of it is applied, so a failed Apply leaves the Delta
// unchanged. Deleting an absent edge is a harmless tombstone.
//
//lint:ctxflow-ok O(batch log batch) over the update batch only, no I/O; the O(m) work happens in Graph()/RescoreDirty which run under the caller's ctx
func (d *Delta) Apply(updates []Update) error {
	if len(updates) == 0 {
		return nil
	}
	n := int32(d.base.NumNodes())
	batch := make([]Edge, 0, len(updates))
	for i, u := range updates {
		if u.Src < 0 || u.Src >= n || u.Dst < 0 || u.Dst >= n {
			return fmt.Errorf("graph: update %d: edge (%d, %d) references a node outside [0, %d)", i, u.Src, u.Dst, n)
		}
		if u.Src == u.Dst {
			return fmt.Errorf("graph: update %d: self-loop on node %d", i, u.Src)
		}
		if u.Weight < 0 || u.Weight != u.Weight {
			return fmt.Errorf("graph: update %d: invalid weight %v on edge (%d, %d)", i, u.Weight, u.Src, u.Dst)
		}
		src, dst := u.Src, u.Dst
		if !d.base.directed && src > dst {
			src, dst = dst, src
		}
		batch = append(batch, Edge{Src: src, Dst: dst, Weight: u.Weight})
	}
	// Canonicalize the batch: stable sort by key preserves arrival
	// order among duplicates, so keeping the last entry per key
	// implements last-wins.
	slices.SortStableFunc(batch, cmpEdgeKey)
	dedup := batch[:0]
	for _, e := range batch {
		if k := len(dedup); k > 0 && dedup[k-1].Src == e.Src && dedup[k-1].Dst == e.Dst {
			dedup[k-1] = e
		} else {
			dedup = append(dedup, e)
		}
	}
	d.patch = mergePatch(d.patch, dedup)
	d.sinceLast = mergePatch(d.sinceLast, dedup)
	for _, e := range dedup {
		d.recent = append(d.recent, e.Src, e.Dst)
	}
	d.cached = nil
	return nil
}

// Graph materializes the overlay and reports what it dirtied relative
// to the previous materialization. The result is cached: repeated calls
// without an intervening Apply return the same *Graph and the same
// Dirty record (so a caller that missed one can still catch up).
//
// The materialized graph defers its arc scatter and global-total fold
// until an accessor needs them — frontier re-scoring (strengths +
// degrees + edge slice) never pays for either. When the patch has
// reached the compaction limit the arcs are assembled eagerly and the
// result becomes the new base.
func (d *Delta) Graph() (*Graph, Dirty) {
	if d.cached != nil {
		return d.cached, d.cachedDirty
	}
	dirty := Dirty{Base: d.last, Nodes: dedupNodes(d.recent), Exclusive: d.exclusive}
	var g *Graph
	if len(d.patch) == 0 {
		// Nothing applied since construction: For is Base, row for row.
		g = d.base
		dirty.Diff = &RowDiff{}
		if m := len(g.edges); m > 0 {
			dirty.Diff.Copies = []SegCopy{{Len: int32(m)}}
		}
	} else {
		g, dirty.Diff = d.materialize(dirty.Nodes)
		if len(d.patch) >= d.limit {
			g.ensureArcs()
			d.base, d.patch = g, nil
		}
	}
	dirty.For = g
	d.last, d.recent, d.sinceLast = g, nil, nil
	d.cached, d.cachedDirty = g, dirty
	return g, dirty
}

// materialize builds the merged graph and its RowDiff against the
// previous materialization. Small batches take the incremental path,
// which records the diff while patching; a batch of more than m/256
// updates (plus a floor of 8, so small graphs patch small batches too)
// falls back to the full base+patch merge, where per-key binary
// searches would cost more than one linear pass, and derives the diff
// in one lockstep walk. m/256 is where the two measured to cost the
// same at 100k and at 1M edges (BenchmarkApplyDeltaBatch).
func (d *Delta) materialize(dirtyNodes []int32) (*Graph, *RowDiff) {
	if len(d.sinceLast) == 0 || len(d.sinceLast)*256 > len(d.last.edges)+256*8 {
		g := d.materializeFull()
		return g, diffRows(d.last.edges, g.edges, dirtyNodes, g.NumNodes())
	}
	return d.materializeDelta(dirtyNodes)
}

// diffRows walks two canonical edge slices in lockstep. A cur row whose
// key and weight bits match an old row extends (or opens) a copy run;
// any other cur row is Changed. A row is on the frontier when it is
// Changed or touches a dirty node.
func diffRows(old, cur []Edge, dirtyNodes []int32, n int) *RowDiff {
	dirty := make([]bool, n)
	for _, u := range dirtyNodes {
		dirty[u] = true
	}
	// A batch this large dirties most rows' endpoints: size the frontier
	// for all of them up front.
	diff := &RowDiff{Frontier: make([]int32, 0, len(cur))}
	i := 0
	for j, e := range cur {
		for i < len(old) && (old[i].Src < e.Src || old[i].Src == e.Src && old[i].Dst < e.Dst) {
			i++ // deleted from old
		}
		changed := true
		if i < len(old) && old[i].Src == e.Src && old[i].Dst == e.Dst {
			if changed = math.Float64bits(old[i].Weight) != math.Float64bits(e.Weight); !changed {
				k := len(diff.Copies) - 1
				if k >= 0 && diff.Copies[k].BaseLo+diff.Copies[k].Len == int32(i) && diff.Copies[k].ForLo+diff.Copies[k].Len == int32(j) {
					diff.Copies[k].Len++
				} else {
					diff.Copies = append(diff.Copies, SegCopy{BaseLo: int32(i), ForLo: int32(j), Len: 1})
				}
			}
			i++
		}
		if changed {
			diff.Changed = append(diff.Changed, int32(j))
		}
		if changed || dirty[e.Src] || dirty[e.Dst] {
			diff.Frontier = append(diff.Frontier, int32(j))
		}
	}
	return diff
}

// materializeFull merges base edges with the whole patch in one linear
// pass and recounts offsets from the result — the batch-heavy fallback.
func (d *Delta) materializeFull() *Graph {
	base := d.base
	n := base.NumNodes()
	g := &Graph{
		directed:  base.directed,
		labels:    base.labels,
		index:     base.index,
		lazy:      base.lazy,
		edges:     applyPatch(base.edges, d.patch),
		lazyArcs:  &arcsOnce{},
		lazyTotal: &totalOnce{},
	}
	g.computeOffsets(n)
	// Untouched nodes keep their exact base strengths (their fold sees
	// only their own incident edges); patched nodes are refolded.
	g.outStrength = append([]float64(nil), base.outStrength...)
	if g.directed {
		g.inStrength = append([]float64(nil), base.inStrength...)
	}
	touched := make([]int32, 0, 2*len(d.patch))
	for _, e := range d.patch {
		touched = append(touched, e.Src, e.Dst)
	}
	d.patchStrengths(g, dedupNodes(touched), d.patchDstIndex())
	if !g.directed {
		g.inStrength = g.outStrength
	}
	for u := 0; u < n; u++ {
		if g.OutDegree(u) == 0 && g.InDegree(u) == 0 {
			g.isolates++
		}
	}
	return g
}

// nodeDelta is one node's pending degree change during an incremental
// materialization.
type nodeDelta struct {
	node  int32
	delta int32
}

// materializeDelta patches the previous materialization with the batch
// applied since. An analyze pass locates every batch key in the old
// edge slice by binary search — no data moves — and records the RowDiff
// (clean segments, changed rows) plus per-node degree deltas; the
// commit pass then moves segments into a fresh slice or, in exclusive
// mode, shifts them within the surrendered slice itself. Offset arrays
// are shared outright when no edge was inserted or deleted (a re-weight
// changes no degree) and prefix-shifted otherwise; strengths are
// refolded for batch endpoints only.
func (d *Delta) materializeDelta(dirtyNodes []int32) (*Graph, *RowDiff) {
	last := d.last
	batch := d.sinceLast
	g := &Graph{
		directed:  last.directed,
		labels:    last.labels,
		index:     last.index,
		lazy:      last.lazy,
		lazyArcs:  &arcsOnce{},
		lazyTotal: &totalOnce{},
	}

	// Analyze: clean segments between batch keys become SegCopies,
	// batch rows land in Changed, degree changes accumulate per node.
	diff := &RowDiff{}
	var outDeltas, inDeltas []nodeDelta
	iLast, forLen := 0, 0
	for _, p := range batch {
		lp := lowerBoundEdge(last.edges, p.Src, p.Dst)
		if lp > iLast {
			diff.Copies = append(diff.Copies, SegCopy{BaseLo: int32(iLast), ForLo: int32(forLen), Len: int32(lp - iLast)})
			forLen += lp - iLast
		}
		iLast = lp
		inLast := lp < len(last.edges) && last.edges[lp].Src == p.Src && last.edges[lp].Dst == p.Dst
		if inLast {
			iLast++
		}
		if p.Weight > 0 {
			diff.Changed = append(diff.Changed, int32(forLen))
			forLen++
		}
		switch {
		case !inLast && p.Weight > 0: // insert
			if g.directed {
				outDeltas = append(outDeltas, nodeDelta{p.Src, 1})
				inDeltas = append(inDeltas, nodeDelta{p.Dst, 1})
			} else {
				outDeltas = append(outDeltas, nodeDelta{p.Src, 1}, nodeDelta{p.Dst, 1})
			}
		case inLast && p.Weight == 0: // delete
			if g.directed {
				outDeltas = append(outDeltas, nodeDelta{p.Src, -1})
				inDeltas = append(inDeltas, nodeDelta{p.Dst, -1})
			} else {
				outDeltas = append(outDeltas, nodeDelta{p.Src, -1}, nodeDelta{p.Dst, -1})
			}
		}
	}
	if rest := len(last.edges) - iLast; rest > 0 {
		diff.Copies = append(diff.Copies, SegCopy{BaseLo: int32(iLast), ForLo: int32(forLen), Len: int32(rest)})
		forLen += rest
	}
	outDeltas, inDeltas = aggregateDeltas(outDeltas), aggregateDeltas(inDeltas)

	// Isolate count next, while last's offsets are still intact (the
	// exclusive commit below may shift them in place): each dirty
	// node's degree transition is its old degree plus the accumulated
	// delta.
	iso := last.isolates
	if len(outDeltas) > 0 || len(inDeltas) > 0 {
		for _, u := range dirtyNodes {
			before := last.OutDegree(int(u))
			after := before + int(deltaFor(outDeltas, u))
			if g.directed {
				in := last.InDegree(int(u))
				before += in
				after += in + int(deltaFor(inDeltas, u))
			}
			switch {
			case before == 0 && after > 0:
				iso--
			case before > 0 && after == 0:
				iso++
			}
		}
	}

	// Commit the edge slice. surrender: last is this overlay's own
	// previous materialization (never the immutable base) and the
	// caller has declared it dead, so its arrays are ours to reuse.
	surrender := d.exclusive && last != d.base
	if surrender && cap(last.edges) >= forLen {
		g.edges = moveSegments(last.edges, forLen, diff.Copies)
	} else {
		ecap := forLen
		if d.exclusive {
			// Headroom so the next materializations can shift in place:
			// net growth between compactions is bounded by the patch
			// limit (larger one-shot batches take materializeFull).
			ecap += d.limit + 64
		}
		edges := make([]Edge, forLen, ecap)
		for _, sc := range diff.Copies {
			copy(edges[sc.ForLo:sc.ForLo+sc.Len], last.edges[sc.BaseLo:sc.BaseLo+sc.Len])
		}
		g.edges = edges
	}
	ci := 0
	for _, p := range batch {
		if p.Weight > 0 {
			g.edges[diff.Changed[ci]] = p
			ci++
		}
	}

	// Offsets: a batch of pure re-weights changes no degree, so the
	// previous graph's offset arrays apply verbatim. Inserts and
	// deletes shift every offset after the affected node by the degree
	// delta — one O(n) int pass instead of an O(m) recount — in place
	// when the array is surrendered and private (offset sharing can
	// make a surrendered graph alias the immutable base's array).
	g.outOff = commitOffsets(last.outOff, outDeltas, surrender && !sameInt32Array(last.outOff, d.base.outOff))
	if g.directed {
		g.inOff = commitOffsets(last.inOff, inDeltas, surrender && !sameInt32Array(last.inOff, d.base.inOff))
	}
	g.isolates = iso

	// Strengths: untouched nodes keep the previous materialization's
	// values — by induction the exact canonical folds — and batch
	// endpoints are refolded from base arcs + full patch incidences.
	// Surrendered strength arrays are always private (both copy paths
	// allocate them), so they are reused outright.
	if surrender {
		g.outStrength = last.outStrength
		if g.directed {
			g.inStrength = last.inStrength
		}
	} else {
		g.outStrength = append([]float64(nil), last.outStrength...)
		if g.directed {
			g.inStrength = append([]float64(nil), last.inStrength...)
		}
	}
	dstIdx := d.patchDstIndex()
	d.patchStrengths(g, dirtyNodes, dstIdx)
	if !g.directed {
		g.inStrength = g.outStrength
	}

	diff.Frontier = d.frontierRows(g, dirtyNodes, dstIdx, diff.Changed)
	return g, diff
}

// moveSegments shifts the clean segments of a surrendered edge slice to
// their destination rows in place and returns the reslice at the new
// length (cap must admit it). Sources and destinations are each
// ascending and pairwise disjoint, so two memmove passes suffice:
// left-moving segments first in ascending order — a left move lands at
// or before its own source and past the previous destination, so the
// only not-yet-moved data it can overwrite is the dead gap between
// sources — then right-moving segments in descending order, whose
// destinations lie beyond every source still awaiting a move.
// Zero-shift segments never move at all, which is what makes a pure
// re-weight batch free. Changed rows are left stale here; the caller
// overwrites every one of them, and together the segments and changed
// rows partition the new row space.
func moveSegments(arr []Edge, newLen int, copies []SegCopy) []Edge {
	if newLen > len(arr) {
		arr = arr[:newLen]
	}
	for _, sc := range copies {
		if sc.ForLo < sc.BaseLo {
			copy(arr[sc.ForLo:sc.ForLo+sc.Len], arr[sc.BaseLo:sc.BaseLo+sc.Len])
		}
	}
	for k := len(copies) - 1; k >= 0; k-- {
		sc := copies[k]
		if sc.ForLo > sc.BaseLo {
			copy(arr[sc.ForLo:sc.ForLo+sc.Len], arr[sc.BaseLo:sc.BaseLo+sc.Len])
		}
	}
	return arr[:newLen]
}

// commitOffsets produces the new CSR offset array: the old one shared
// verbatim when nothing changed, shifted in place when surrendered and
// private, copied otherwise.
func commitOffsets(off []int32, deltas []nodeDelta, inPlace bool) []int32 {
	if len(deltas) == 0 {
		return off
	}
	if !inPlace {
		return shiftOffsets(off, deltas)
	}
	first := int(deltas[0].node) + 1
	cum := int32(0)
	k := 0
	for i := first; i < len(off); i++ {
		for k < len(deltas) && int(deltas[k].node) < i {
			cum += deltas[k].delta
			k++
		}
		off[i] += cum
	}
	return off
}

// deltaFor returns node u's accumulated degree delta (deltas sorted by
// node, zero when absent).
func deltaFor(deltas []nodeDelta, u int32) int32 {
	lo, hi := 0, len(deltas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if deltas[mid].node < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(deltas) && deltas[lo].node == u {
		return deltas[lo].delta
	}
	return 0
}

// sameInt32Array reports whether two slices share a backing array (by
// first element; all aliasing in this package is whole-array).
func sameInt32Array(a, b []int32) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// aggregateDeltas sorts degree deltas by node, sums duplicates and
// drops zero-sum entries, in place.
func aggregateDeltas(ds []nodeDelta) []nodeDelta {
	if len(ds) == 0 {
		return nil
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].node < ds[j].node })
	agg := ds[:0]
	for _, x := range ds {
		if k := len(agg); k > 0 && agg[k-1].node == x.node {
			agg[k-1].delta += x.delta
		} else {
			agg = append(agg, x)
		}
	}
	k := 0
	for _, x := range agg {
		if x.delta != 0 {
			agg[k] = x
			k++
		}
	}
	return agg[:k]
}

// shiftOffsets returns a copy of a CSR offset array with each entry
// past an affected node raised (or lowered) by that node's accumulated
// degree delta. deltas must be sorted by node.
func shiftOffsets(off []int32, deltas []nodeDelta) []int32 {
	out := make([]int32, len(off))
	if len(deltas) == 0 {
		copy(out, off)
		return out
	}
	first := int(deltas[0].node) + 1
	copy(out[:first], off[:first])
	cum := int32(0)
	k := 0
	for i := first; i < len(off); i++ {
		for k < len(deltas) && int(deltas[k].node) < i {
			cum += deltas[k].delta
			k++
		}
		out[i] = off[i] + cum
	}
	return out
}

// lowerBoundEdge returns the first index in a canonical edge slice
// whose key is >= (src, dst).
func lowerBoundEdge(edges []Edge, src, dst int32) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := edges[mid]
		if e.Src < src || (e.Src == src && e.Dst < dst) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// frontierRows lists every row of g incident to a dirty node — the rows
// an endpoint-sensitive scorer must recompute. Src-side incidences are
// a contiguous run of the canonical edge slice; Dst-side incidences are
// enumerated from the base graph's adjacency plus the patch (every edge
// of g lives in one or the other) and located by binary search, so the
// cost is O(sum deg(dirty) * log m) with no arc scatter on g.
func (d *Delta) frontierRows(g *Graph, dirtyNodes []int32, dstIdx []int32, changed []int32) []int32 {
	rows := append([]int32(nil), changed...)
	edges := g.edges
	addKey := func(v, u int32) {
		p := lowerBoundEdge(edges, v, u)
		if p < len(edges) && edges[p].Src == v && edges[p].Dst == u {
			rows = append(rows, int32(p))
		}
	}
	base := d.base
	for _, u := range dirtyNodes {
		lo := lowerBoundEdge(edges, u, 0)
		hi := lowerBoundEdge(edges, u+1, 0)
		for r := lo; r < hi; r++ {
			rows = append(rows, int32(r))
		}
		if g.directed {
			for _, a := range base.In(int(u)) {
				addKey(a.To, u)
			}
		} else {
			for _, a := range base.Out(int(u)) {
				if a.To < u {
					addKey(a.To, u)
				}
			}
		}
		dlo, dhi := d.dstRun(dstIdx, u)
		for k := dlo; k < dhi; k++ {
			addKey(d.patch[dstIdx[k]].Src, u)
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// patchArc is one patch incidence as seen from a node: the far
// endpoint and the new weight (0 = deleted).
type patchArc struct {
	to int32
	w  float64
}

// patchDstIndex orders patch entries by (Dst, Src): the Dst-side
// incidence runs the per-node merges and frontier walks need. Src-side
// runs are contiguous in the patch itself.
func (d *Delta) patchDstIndex() []int32 {
	dstIdx := make([]int32, len(d.patch))
	for i := range dstIdx {
		dstIdx[i] = int32(i)
	}
	sort.Slice(dstIdx, func(a, b int) bool {
		pa, pb := d.patch[dstIdx[a]], d.patch[dstIdx[b]]
		if pa.Dst != pb.Dst {
			return pa.Dst < pb.Dst
		}
		return pa.Src < pb.Src
	})
	return dstIdx
}

// patchStrengths refolds the strength of each given node. Each refold
// merges the node's base arcs with its patch incidences in arc (To)
// order — canonical incident-edge order for that node — so the
// resulting float is bit-identical to a cold build's fold.
func (d *Delta) patchStrengths(g *Graph, nodes []int32, dstIdx []int32) {
	base := d.base
	var inc []patchArc
	for _, u := range nodes {
		sr := d.srcRun(u)
		dlo, dhi := d.dstRun(dstIdx, u)
		if g.directed {
			inc = inc[:0]
			for _, e := range sr {
				inc = append(inc, patchArc{to: e.Dst, w: e.Weight})
			}
			g.outStrength[u] = foldMerge(base.Out(int(u)), inc)
			inc = inc[:0]
			for k := dlo; k < dhi; k++ {
				e := d.patch[dstIdx[k]]
				inc = append(inc, patchArc{to: e.Src, w: e.Weight})
			}
			g.inStrength[u] = foldMerge(base.In(int(u)), inc)
			continue
		}
		// Undirected: incident patch arcs in To order are the Dst-side
		// entries (To = Src < u) followed by the Src-side entries
		// (To = Dst > u) — the same split scatterArcs relies on.
		inc = inc[:0]
		for k := dlo; k < dhi; k++ {
			e := d.patch[dstIdx[k]]
			inc = append(inc, patchArc{to: e.Src, w: e.Weight})
		}
		for _, e := range sr {
			inc = append(inc, patchArc{to: e.Dst, w: e.Weight})
		}
		g.outStrength[u] = foldMerge(base.Out(int(u)), inc)
	}
}

// srcRun returns the contiguous patch run with Src == u (Dst
// ascending).
func (d *Delta) srcRun(u int32) []Edge {
	lo := sort.Search(len(d.patch), func(i int) bool { return d.patch[i].Src >= u })
	hi := sort.Search(len(d.patch), func(i int) bool { return d.patch[i].Src > u })
	return d.patch[lo:hi]
}

// dstRun returns the dstIdx index range with Dst == u (Src ascending).
func (d *Delta) dstRun(dstIdx []int32, u int32) (int, int) {
	lo := sort.Search(len(dstIdx), func(i int) bool { return d.patch[dstIdx[i]].Dst >= u })
	hi := sort.Search(len(dstIdx), func(i int) bool { return d.patch[dstIdx[i]].Dst > u })
	return lo, hi
}

// foldMerge left-folds a node's post-patch incident weights in arc (To)
// order: base arcs merged with patch incidences, the patch overriding
// on key collision and tombstones (w == 0) contributing nothing.
func foldMerge(baseArcs []Arc, inc []patchArc) float64 {
	var s float64
	i, j := 0, 0
	for i < len(baseArcs) && j < len(inc) {
		switch {
		case baseArcs[i].To < inc[j].to:
			s += baseArcs[i].Weight
			i++
		case baseArcs[i].To > inc[j].to:
			if inc[j].w > 0 {
				s += inc[j].w
			}
			j++
		default:
			if inc[j].w > 0 {
				s += inc[j].w
			}
			i++
			j++
		}
	}
	for ; i < len(baseArcs); i++ {
		s += baseArcs[i].Weight
	}
	for ; j < len(inc); j++ {
		if inc[j].w > 0 {
			s += inc[j].w
		}
	}
	return s
}

// applyPatch merges canonical base edges with the sorted patch: patch
// entries override matching base edges (tombstones removing them) and
// insert otherwise. One linear pass, output stays canonical.
func applyPatch(edges, patch []Edge) []Edge {
	out := make([]Edge, 0, len(edges)+len(patch))
	i, j := 0, 0
	for i < len(edges) && j < len(patch) {
		switch c := cmpEdgeKey(edges[i], patch[j]); {
		case c < 0:
			out = append(out, edges[i])
			i++
		case c > 0:
			if patch[j].Weight > 0 {
				out = append(out, patch[j])
			}
			j++
		default:
			if patch[j].Weight > 0 {
				out = append(out, patch[j])
			}
			i++
			j++
		}
	}
	out = append(out, edges[i:]...)
	for ; j < len(patch); j++ {
		if patch[j].Weight > 0 {
			out = append(out, patch[j])
		}
	}
	return out
}

// mergePatch folds a canonicalized batch into the existing patch,
// newer entries winning on key collision.
func mergePatch(old, batch []Edge) []Edge {
	if len(old) == 0 {
		return append([]Edge(nil), batch...)
	}
	out := make([]Edge, 0, len(old)+len(batch))
	i, j := 0, 0
	for i < len(old) && j < len(batch) {
		switch c := cmpEdgeKey(old[i], batch[j]); {
		case c < 0:
			out = append(out, old[i])
			i++
		case c > 0:
			out = append(out, batch[j])
			j++
		default:
			out = append(out, batch[j])
			i++
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, batch[j:]...)
	return out
}

// cmpEdgeKey orders edges by canonical (Src, Dst) key.
func cmpEdgeKey(a, b Edge) int {
	switch {
	case a.Src < b.Src:
		return -1
	case a.Src > b.Src:
		return 1
	case a.Dst < b.Dst:
		return -1
	case a.Dst > b.Dst:
		return 1
	}
	return 0
}

// dedupNodes sorts and deduplicates a node-ID list, returning nil for
// an empty input.
func dedupNodes(nodes []int32) []int32 {
	if len(nodes) == 0 {
		return nil
	}
	out := append([]int32(nil), nodes...)
	slices.Sort(out)
	return slices.Compact(out)
}

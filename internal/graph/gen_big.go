package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// UniformWeightsIn draws weights uniformly from [lo, hi], a floor
// that UniformWeights (always [1, maxW]) cannot express.
func UniformWeightsIn(lo, hi int64, seed int64) WeightFn {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("graph: UniformWeightsIn needs 1 <= lo <= hi, got [%d, %d]", lo, hi))
	}
	rng := rand.New(rand.NewSource(seed))
	return func(int, NodeID, NodeID) int64 { return lo + rng.Int63n(hi-lo+1) }
}

// BigFlood generates a connected graph on n vertices and exactly m
// edges, built for millions-of-edges scale: candidate edges are
// deduplicated by sorting packed (u,v) keys instead of the hash map
// RandomConnected uses, which would dominate the build at 10^7 edges.
//
// Every edge spans at most window in vertex-index distance: a random
// spanning "vine" (each vertex attaches to a random earlier vertex
// within the window) plus locality-bounded extra edges. The locality
// is what makes the instance a meaningful parallel-engine workload —
// a contiguous vertex-range partition cuts only edges near the range
// boundaries, so cut sizes stay small and lookahead windows stay
// meaningful, like a physical network with geography would behave.
// Deterministic for a fixed (n, m, window, seed).
func BigFlood(n, m, window int, w WeightFn, seed int64) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: BigFlood needs n >= 2, got %d", n))
	}
	if m < n-1 {
		panic(fmt.Sprintf("graph: BigFlood needs m >= n-1 (n=%d m=%d)", n, m))
	}
	if window < 1 {
		window = 1
	}
	maxM := int64(0)
	for v := 1; v < n; v++ {
		d := window
		if v < d {
			d = v
		}
		maxM += int64(d)
	}
	if int64(m) > maxM {
		panic(fmt.Sprintf("graph: BigFlood window %d admits only %d edges on %d vertices, need %d", window, maxM, n, m))
	}

	pack := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	rng := rand.New(rand.NewSource(seed))

	// Spanning vine: connect v to a random earlier vertex at most
	// window back. Tree keys are unique by construction (distinct v in
	// every key's low half... not quite: key low half is max(u,v) = v
	// here since u < v, and v is distinct per iteration).
	tree := make([]uint64, 0, n-1)
	for v := 1; v < n; v++ {
		back := window
		if v < back {
			back = v
		}
		u := v - 1 - rng.Intn(back)
		tree = append(tree, pack(u, v))
	}
	sort.Slice(tree, func(i, j int) bool { return tree[i] < tree[j] })

	inTree := func(k uint64) bool {
		i := sort.Search(len(tree), func(i int) bool { return tree[i] >= k })
		return i < len(tree) && tree[i] == k
	}

	// Extra edges: batched generate, sort, merge-dedup until enough
	// unique non-tree keys exist, then trim the tail to hit m exactly.
	need := m - (n - 1)
	var extras []uint64
	for len(extras) < need {
		batch := need - len(extras)
		batch += batch/16 + 64 // headroom for collisions
		cand := make([]uint64, 0, batch)
		for i := 0; i < batch; i++ {
			u := rng.Intn(n)
			d := 1 + rng.Intn(window)
			v := u + d
			if v >= n {
				v = u - d
				if v < 0 {
					continue
				}
			}
			k := pack(u, v)
			if inTree(k) {
				continue
			}
			cand = append(cand, k)
		}
		cand = append(cand, extras...)
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		uniq := cand[:0]
		var prev uint64
		for i, k := range cand {
			if i > 0 && k == prev {
				continue
			}
			uniq = append(uniq, k)
			prev = k
		}
		extras = uniq
	}
	extras = extras[:need]

	// Merge tree and extras (both sorted, disjoint) so edge IDs follow
	// the global (u,v) order, then draw weights in edge-ID order.
	b := NewBuilder(n)
	i, j, id := 0, 0, 0
	addKey := func(k uint64) {
		u, v := NodeID(k>>32), NodeID(k&0xffffffff)
		b.AddEdge(u, v, w(id, u, v))
		id++
	}
	for i < len(tree) || j < len(extras) {
		switch {
		case j >= len(extras) || (i < len(tree) && tree[i] < extras[j]):
			addKey(tree[i])
			i++
		default:
			addKey(extras[j])
			j++
		}
	}
	return b.MustBuild()
}

// Package pli implements position list indexes (PLIs), also known as
// stripped partitions (§5 of the HyFD paper). A PLI groups the records of an
// attribute into equivalence classes ("clusters") by value, omitting
// singleton clusters. PLIs are the common substrate of HyFD and of every
// lattice-traversal baseline: candidate validation, partition intersection
// and the PLI-compressed record matrix all build on them.
package pli

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"hyfd/internal/invariant"
	"hyfd/internal/relation"
)

// Singleton marks, inside a compressed record, an attribute in which the
// record's value is unique (its cluster was stripped).
const Singleton int32 = -1

// PLI is the position list index of a single attribute.
type PLI struct {
	// Attr is the attribute index in the original relation.
	Attr int
	// Clusters holds the record ids of every equivalence class with at
	// least two members, each cluster in ascending record order.
	Clusters [][]int32
	// NumClusters counts all equivalence classes including stripped
	// singletons, i.e. the number of distinct values of the attribute.
	NumClusters int
	// NumRows is the total number of records in the indexed relation.
	NumRows int
}

// Size returns the number of records covered by non-singleton clusters.
func (p *PLI) Size() int {
	n := 0
	for _, c := range p.Clusters {
		n += len(c)
	}
	return n
}

// IsConstant reports whether all records share one value (at most one
// cluster covering every record). Empty or single-row relations count as
// constant: no record pair can disagree.
func (p *PLI) IsConstant() bool {
	return p.NumClusters <= 1
}

// IsUnique reports whether no two records share a value, i.e. the attribute
// is a key.
func (p *PLI) IsUnique() bool {
	return len(p.Clusters) == 0
}

// Build constructs the PLI of one attribute from its column values. Under
// NullNotEqualsNull, every null cell forms its own singleton cluster, so
// nulls never witness an FD violation on the left-hand side.
func Build(attr int, column []string, ns relation.NullSemantics) *PLI {
	groups := make(map[string][]int32, len(column))
	nulls := 0
	for i, v := range column {
		if v == relation.Null && ns == relation.NullNotEqualsNull {
			nulls++ // each null is its own class
			continue
		}
		groups[v] = append(groups[v], int32(i))
	}
	p := &PLI{Attr: attr, NumRows: len(column), NumClusters: nulls}
	for _, ids := range groups {
		p.NumClusters++
		if len(ids) > 1 {
			p.Clusters = append(p.Clusters, ids)
		}
	}
	// Deterministic cluster order: by first record id. Map iteration order
	// would otherwise leak into sampling order and phase-switch counts.
	sort.Slice(p.Clusters, func(i, j int) bool {
		return p.Clusters[i][0] < p.Clusters[j][0]
	})
	if invariant.Enabled {
		assertStripped(p)
	}
	return p
}

// Options configures preprocessing (BuildAllWith, NewIndexWith).
type Options struct {
	// Threads is the worker count for per-attribute PLI construction and
	// compressed-record inversion; 1 builds sequentially, any value <= 0
	// picks runtime.GOMAXPROCS(0). Per-attribute construction is fully
	// independent and each attribute's output is deterministic, so every
	// thread count yields bit-for-bit identical PLIs, records and order.
	Threads int
	// OnBuild, when non-nil, receives every attribute's finished PLI and
	// its build latency. With Threads > 1 it is called concurrently from
	// worker goroutines; callers needing ordered delivery should record
	// into a per-attribute slot (PLI.Attr) and replay afterwards.
	OnBuild func(p *PLI, d time.Duration)
}

// threadCount resolves the configured worker count: <= 0 means all CPUs.
func (o Options) threadCount() int {
	if o.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Threads
}

// BuildAll constructs one PLI per attribute of the relation, sequentially.
func BuildAll(rel *relation.Relation, ns relation.NullSemantics) []*PLI {
	return BuildAllWith(rel, ns, Options{Threads: 1})
}

// BuildAllWith constructs one PLI per attribute of the relation, fanning
// the attributes out over a worker pool. The result is identical to the
// sequential build for every thread count.
func BuildAllWith(rel *relation.Relation, ns relation.NullSemantics, opts Options) []*PLI {
	plis := make([]*PLI, rel.NumCols())
	threads := opts.threadCount()
	if threads > len(plis) {
		threads = len(plis)
	}
	buildOne := func(a int) {
		start := time.Time{}
		if opts.OnBuild != nil {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			start = time.Now()
		}
		col := make([]string, len(rel.Rows))
		for i, row := range rel.Rows {
			col[i] = row[a]
		}
		plis[a] = Build(a, col, ns)
		if opts.OnBuild != nil {
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			opts.OnBuild(plis[a], time.Since(start))
		}
	}
	if threads <= 1 {
		for a := range plis {
			buildOne(a)
		}
		return plis
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				buildOne(a)
			}
		}()
	}
	for a := range plis {
		work <- a
	}
	close(work)
	wg.Wait()
	return plis
}

// Index bundles the per-attribute PLIs with the PLI-compressed records the
// Preprocessor produces (Alg. 1): Records[r][a] is the id of record r's
// cluster in attribute a, or Singleton if the record's value is unique in a.
// Order lists attribute indices sorted by descending NumClusters, the
// sortation the paper uses both to pick sampling sort keys and to choose
// the pivot PLI during validation.
type Index struct {
	Plis    []*PLI
	Records [][]int32
	Order   []int
	NumRows int
	NumCols int
}

// NewIndex preprocesses a relation into PLIs and compressed records,
// sequentially.
func NewIndex(rel *relation.Relation, ns relation.NullSemantics) *Index {
	return NewIndexWith(rel, ns, Options{Threads: 1})
}

// NewIndexWith preprocesses a relation into PLIs and compressed records
// with a worker pool (Alg. 1, parallelized per attribute). Both the PLI
// build and the record inversion partition their work by attribute —
// workers write disjoint columns of the record matrix — so the index is
// bit-for-bit identical across thread counts.
func NewIndexWith(rel *relation.Relation, ns relation.NullSemantics, opts Options) *Index {
	plis := BuildAllWith(rel, ns, opts)
	idx := &Index{
		Plis:    plis,
		NumRows: rel.NumRows(),
		NumCols: rel.NumCols(),
	}
	idx.Records = make([][]int32, idx.NumRows)
	flat := make([]int32, idx.NumRows*idx.NumCols)
	for i := range flat {
		flat[i] = Singleton
	}
	for r := 0; r < idx.NumRows; r++ {
		idx.Records[r], flat = flat[:idx.NumCols], flat[idx.NumCols:]
	}
	invert := func(a int) {
		for cid, cluster := range plis[a].Clusters {
			for _, r := range cluster {
				idx.Records[r][a] = int32(cid)
			}
		}
	}
	threads := opts.threadCount()
	if threads > idx.NumCols {
		threads = idx.NumCols
	}
	if threads <= 1 {
		for a := range plis {
			invert(a)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range work {
					invert(a)
				}
			}()
		}
		for a := range plis {
			work <- a
		}
		close(work)
		wg.Wait()
	}
	idx.Order = make([]int, idx.NumCols)
	for a := range idx.Order {
		idx.Order[a] = a
	}
	sort.SliceStable(idx.Order, func(i, j int) bool {
		return plis[idx.Order[i]].NumClusters > plis[idx.Order[j]].NumClusters
	})
	return idx
}

// ForEachClusterSize calls f with the size of every non-singleton cluster
// across all attribute PLIs, in attribute order — the cluster-size
// distribution of a prepared index.
func (ix *Index) ForEachClusterSize(f func(size int)) {
	for _, p := range ix.Plis {
		for _, c := range p.Clusters {
			f(len(c))
		}
	}
}

// Rank returns, for every attribute, its position in Order. Attributes with
// more clusters (more distinct values) have lower ranks.
func (ix *Index) Rank() []int {
	rank := make([]int, ix.NumCols)
	for pos, a := range ix.Order {
		rank[a] = pos
	}
	return rank
}

// Pair is an ordered pair of record ids. The Validator reports pairs that
// violated FD candidates as comparison suggestions for the Sampler.
type Pair struct {
	A, B int32
}

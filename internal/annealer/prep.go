// Prepared problems and the prepared-problem cache. A Lease already
// amortizes Params validation and the engine's sweep-program compile
// across calls; what each batch still needs is the per-PROBLEM compile —
// clique embedding, chain strength, physical coefficients, CSR layout,
// normalization. The paper's serving workload re-submits the same
// (channel, modulation) detection instances across frames, so that
// compile is highly redundant: PrepareProblem hoists it into a reusable
// Prepared, RunPrepared runs a batch against one, and PrepCache is the
// LRU a serving tier (internal/fleet) puts in front of PrepareProblem,
// keyed by (lease, problem content hash) with verified hits.
//
// Correctness is structural: a Prepared holds exactly the artifacts
// a fresh compile would produce — byte for byte, since the compile is
// deterministic — and they are read-only during runs, so RunPrepared is
// bit-identical to Run and cache hits can never change an answer, only
// skip work. A hash collision is caught by full-content verification
// and falls back to a fresh compile.
package annealer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/chimera"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Prepared is one problem compiled for one lease: the normalized CSR of
// the problem the engine actually sweeps (physical for embedded leases)
// plus, on the QPU path, the minor embedding. It is immutable after
// PrepareProblem and safe for concurrent RunPrepared calls.
type Prepared struct {
	l   *Lease
	is  *qubo.Ising // private snapshot of the problem, for hit verification
	pr  *qubo.CSR
	emb *chimera.Embedding
}

// PrepareProblem compiles is for this lease: CSR + normalization, plus
// embedding and physical coefficients when the lease is QPU-backed. The
// snapshot it keeps is a deep copy, so later mutation of is cannot
// desynchronize a cached entry from its compiled artifacts.
func (l *Lease) PrepareProblem(is *qubo.Ising) (*Prepared, error) {
	prep, err := l.compile(is.Clone())
	if err != nil {
		return nil, err
	}
	return &prep, nil
}

// compile performs the per-problem compile against is itself (no
// snapshot), returning the Prepared by value so a one-shot run keeps it
// off the heap. On the QPU path that is clique embedding onto the smallest
// sufficient Chimera region, chain strength, physical coefficients; on
// both paths the CSR layout and normalization of the problem the engine
// sweeps. The result depends only on (lease, problem).
func (l *Lease) compile(is *qubo.Ising) (Prepared, error) {
	prep := Prepared{l: l, is: is}
	if is.N == 0 {
		return prep, fmt.Errorf("annealer: empty problem")
	}
	sweep := is
	if q := l.qpu; q != nil {
		if is.N > q.MaxProblemSize() {
			return prep, fmt.Errorf("annealer: %d variables exceed QPU clique capacity %d", is.N, q.MaxProblemSize())
		}
		m := chimera.MinGridFor(is.N)
		if m > q.Grid {
			m = q.Grid
		}
		emb, err := chimera.EmbedClique(chimera.NewGraph(m), is.N)
		if err != nil {
			return prep, err
		}
		cs := q.ChainStrength
		if cs == 0 {
			cs = chimera.RecommendedChainStrength(is)
		}
		if sweep, err = emb.EmbedIsing(is, cs); err != nil {
			return prep, err
		}
		prep.emb = emb
	}
	prep.pr = qubo.NewCSR(sweep)
	prep.pr.Normalize()
	return prep, nil
}

// RunPrepared runs one batch of numReads reads (≤ 0: the lease default)
// against a prepared problem, reverse-annealing from init when the
// leased schedule starts classical. It is the one entry into the batch
// body: Run and QPU.Run are one-shot leases over it, and results are
// bit-identical to theirs with the same parameters and RNG — the lease
// and the prepared problem only amortize validation and compiles, never
// the dynamics. prep must have come from this lease's PrepareProblem.
func (l *Lease) RunPrepared(prep *Prepared, init []int8, numReads int, r *rng.Source) (*Result, error) {
	if prep == nil || prep.l != l {
		return nil, fmt.Errorf("annealer: prepared problem does not belong to this lease")
	}
	p := l.p
	p.InitialState = init
	if numReads > 0 {
		p.NumReads = numReads
	}
	if p.NumReads > MaxReads {
		return nil, fmt.Errorf("annealer: %d reads exceed the per-read stream limit %d", p.NumReads, MaxReads)
	}
	return l.run(prep, p, r)
}

// PrepCacheStats is a point-in-time snapshot of a cache's counters.
// Hits are verified hits; Collisions count lookups whose hash matched a
// resident entry with different content (served by a fresh, uncached
// compile); Misses led to a compile that was then inserted.
type PrepCacheStats struct {
	Hits, Misses, Evictions, Collisions uint64
}

// PrepCache is an LRU of Prepared problems keyed by (lease, problem
// content hash). It is safe for concurrent use, but a serving tier that
// needs deterministic eviction (and therefore deterministic counters)
// at any worker count should drive it from a single-threaded planning
// pass — see internal/fleet's execute pre-pass.
type PrepCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[prepKey]*list.Element
	stats PrepCacheStats
}

type prepKey struct {
	l    *Lease
	hash uint64
}

type prepEntry struct {
	key  prepKey
	prep *Prepared
}

// NewPrepCache returns a cache retaining at most capacity prepared
// problems (capacity ≥ 1).
func NewPrepCache(capacity int) *PrepCache {
	if capacity < 1 {
		panic("annealer: prep cache capacity must be ≥ 1")
	}
	return &PrepCache{cap: capacity, ll: list.New(), byKey: make(map[prepKey]*list.Element)}
}

// Get returns the lease's prepared form of is, compiling on miss and
// inserting the result. A hit is trusted only after full content
// verification against the entry's snapshot; a hash collision compiles
// fresh without touching the resident entry.
func (c *PrepCache) Get(l *Lease, is *qubo.Ising) (*Prepared, error) {
	k := prepKey{l, is.ContentHash()}
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		e := el.Value.(*prepEntry)
		if e.prep.is.Equal(is) {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			c.mu.Unlock()
			return e.prep, nil
		}
		c.stats.Collisions++
		c.mu.Unlock()
		return l.PrepareProblem(is)
	}
	c.stats.Misses++
	c.mu.Unlock()

	prep, err := l.PrepareProblem(is)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.byKey[k]; !ok {
		for len(c.byKey) >= c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.byKey, oldest.Value.(*prepEntry).key)
			c.stats.Evictions++
		}
		c.byKey[k] = c.ll.PushFront(&prepEntry{key: k, prep: prep})
	}
	c.mu.Unlock()
	return prep, nil
}

// Stats returns a snapshot of the cache counters.
func (c *PrepCache) Stats() PrepCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of resident entries.
func (c *PrepCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

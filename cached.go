package cardpi

import (
	"context"
	"fmt"

	"cardpi/internal/cache"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// CacheConfig sizes a Cached wrapper; see NewCached.
type CacheConfig struct {
	// Entries is the total cache capacity (rounded up to the sharded
	// set-associative geometry); <= 0 takes 4096.
	Entries int
	// Shards is the lock-domain count, rounded up to a power of two;
	// <= 0 takes 8. More shards cut contention under concurrent load.
	Shards int
	// Metrics, when non-nil, registers the cardpi_cache_* families there,
	// labeled cache=<Label>. See OBSERVABILITY.md.
	Metrics *obs.Registry
	// Label distinguishes this cache's metric series when several caches
	// share one registry; "" takes "library".
	Label string
}

// Cached memoizes a PI behind the epoch-invalidated interval cache
// (internal/cache): repeated intervals for semantically identical queries
// are served from memory, and N concurrent single-miss calls on one key
// execute exactly one underlying call (singleflight).
//
// Identity is the canonical query key — predicate order and equivalent
// range forms are normalized before hashing — and on a miss the wrapped PI
// is invoked with the canonicalized query, so every variant of a query
// maps to one bit-exact result: for any q1, q2 with equal canonical forms,
// both are answered with identical bits, equal to the wrapped PI's interval
// for workload.Canonicalize(q1). For already-canonical queries
// (anything from ParseQuery or the workload generator) this is
// indistinguishable from the uncached wrapper.
//
// Cached is for immutable PIs (the calibrated static wrappers). If the
// underlying state changes — a recalibration, a model swap — call
// Invalidate, which makes every cached entry unreachable in O(1). Safe for
// concurrent use whenever the wrapped PI is; steady-state hits perform
// zero heap allocations (enforced by AllocsPerRun tests).
type Cached struct {
	pi PI
	c  *cache.Cache
}

// NewCached wraps pi in an interval cache. The error is reserved for
// invalid configurations; the current geometry rules accept any values.
func NewCached(pi PI, cfg CacheConfig) (*Cached, error) {
	if pi == nil {
		return nil, fmt.Errorf("cardpi: NewCached requires a PI")
	}
	var m *cache.Metrics
	if cfg.Metrics != nil {
		label := cfg.Label
		if label == "" {
			label = "library"
		}
		m = cache.NewMetrics(cfg.Metrics, obs.L("cache", label))
	}
	return &Cached{
		pi: pi,
		c:  cache.New(cache.Config{Entries: cfg.Entries, Shards: cfg.Shards, Metrics: m}),
	}, nil
}

// Name identifies the wrapper and its inner method, e.g. "cached/s-cp/spn".
func (cc *Cached) Name() string { return "cached/" + cc.pi.Name() }

// Intervals implements PI: it probes the cache per element and computes
// only the misses through the wrapped PI, on their canonical forms. A call
// with exactly one miss goes through the cache's singleflight, so
// concurrent misses on one key across requests execute one underlying
// call; several misses make one batched underlying call (within-batch
// duplicates are computed together, without cross-request coalescing).
// Results are bit-identical either way, and errors are never cached. A
// call whose ctx is already done returns ctx.Err(); the miss path forwards
// ctx to the wrapped PI. An all-hit call performs zero heap allocations.
func (cc *Cached) Intervals(ctx context.Context, qs []workload.Query, dst []Interval) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	epoch := cc.c.Epoch().Load()
	var missQs []workload.Query
	var missKeys []cache.Key
	var missIdx []int
	for i, q := range qs {
		k := cache.KeyOf(q)
		if r, ok := cc.c.Get(k); ok {
			dst[i] = Interval{Lo: r.Lo, Hi: r.Hi}
			continue
		}
		missQs = append(missQs, workload.Canonicalize(q))
		missKeys = append(missKeys, k)
		missIdx = append(missIdx, i)
	}
	switch len(missIdx) {
	case 0:
		return nil
	case 1:
		r, _, _, err := cc.c.Do(missKeys[0], func() (cache.Result, uint64, bool, error) {
			iv, err := IntervalCtx(ctx, cc.pi, missQs[0])
			if err != nil {
				return cache.Result{}, 0, false, err
			}
			return cache.Result{Lo: iv.Lo, Hi: iv.Hi}, 0, true, nil
		})
		if err != nil {
			return err
		}
		dst[missIdx[0]] = Interval{Lo: r.Lo, Hi: r.Hi}
		return nil
	}
	ivs := make([]Interval, len(missQs))
	if err := cc.pi.Intervals(ctx, missQs, ivs); err != nil {
		return err
	}
	for j, i := range missIdx {
		dst[i] = ivs[j]
		cc.c.Put(missKeys[j], epoch, cache.Result{Lo: ivs[j].Lo, Hi: ivs[j].Hi})
	}
	return nil
}

// Invalidate bumps the cache epoch: every cached interval becomes
// unreachable in O(1) and the next request per key recomputes against the
// wrapped PI's current state. Call it after any mutation of the underlying
// estimator (recalibration, model swap).
func (cc *Cached) Invalidate() { cc.c.Invalidate() }

// CacheLen reports the live cached entries — a sizing probe for tests and
// capacity planning, not a hot-path accessor.
func (cc *Cached) CacheLen() int { return cc.c.Len() }

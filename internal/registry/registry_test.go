package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/pipeline"
)

// testConfig is the cheap shared build: histogram + split-CP on a small
// census table, matching the pipeline package's test fixtures.
func testConfig(alpha float64) pipeline.Config {
	return pipeline.Config{
		Dataset: "census", Model: "histogram", Method: "s-cp",
		Alpha: alpha, Rows: 2000, Queries: 300, Seed: 1,
	}
}

// artifactCache memoizes built artifact bytes per alpha so the suite pays
// for each pipeline build once.
var (
	artifactMu    sync.Mutex
	artifactCache = map[float64][]byte{}
)

func artifactBytes(t *testing.T, alpha float64) []byte {
	t.Helper()
	artifactMu.Lock()
	defer artifactMu.Unlock()
	if b, ok := artifactCache[alpha]; ok {
		return b
	}
	cfg := testConfig(alpha)
	setup, err := pipeline.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var path = filepath.Join(t.TempDir(), "a.cpi")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.SaveBundle(f, setup, cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	artifactCache[alpha] = b
	return b
}

// writeArtifact materializes the alpha's artifact under dir.
func writeArtifact(t *testing.T, dir, name string, alpha float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, artifactBytes(t, alpha), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestRegistry builds a registry whose serving value is the Setup
// itself.
func newTestRegistry(t *testing.T, opts Options) *Registry[*pipeline.Setup] {
	t.Helper()
	return New(func(_ Key, _ *BundleRef, s *pipeline.Setup) (*pipeline.Setup, error) {
		return s, nil
	}, opts)
}

// intervalVector evaluates the setup's PI over the first n calibration
// queries, returning the raw endpoint bits.
func intervalVector(t *testing.T, s *pipeline.Setup, n int) []uint64 {
	t.Helper()
	if len(s.Cal.Queries) < n {
		n = len(s.Cal.Queries)
	}
	out := make([]uint64, 0, 2*n)
	for _, lq := range s.Cal.Queries[:n] {
		iv, err := cardpi.IntervalCtx(context.Background(), s.PI, lq.Query)
		if err != nil {
			t.Fatalf("interval: %v", err)
		}
		out = append(out, math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
	}
	return out
}

func sameVector(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{})
	key := Key{Tenant: "acme", Table: "census"}

	if _, err := r.Acquire(key); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("acquire before register: %v, want ErrUnknownKey", err)
	}
	path := writeArtifact(t, dir, "v1.cpi", 0.1)
	ref, err := r.Register(key, path)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Version != 1 || ref.Manifest.Model != "histogram" || ref.Size <= 0 {
		t.Fatalf("bad ref: %+v", ref)
	}
	if _, err := r.Acquire(key); !errors.Is(err, ErrNotPromoted) {
		t.Fatalf("acquire before promote: %v, want ErrNotPromoted", err)
	}
	if _, err := r.Rollback(key); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("rollback with no history: %v, want ErrNoPrevious", err)
	}

	// First promote has nothing to compare against; it must still fully
	// load the candidate.
	if _, err := r.Promote(key, PromoteOptions{}); err != nil {
		t.Fatal(err)
	}
	l1, err := r.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Ref.Version != 1 {
		t.Fatalf("acquired version %d, want 1", l1.Ref.Version)
	}
	if _, err := r.Acquire(key); err != nil {
		t.Fatal(err)
	}
	// Promote fully loads the candidate, pre-warming the cache — both
	// Acquires above are hits and neither cold-loads.
	if hits, misses := r.met.cacheHits.Value(), r.met.cacheMisses.Value(); hits != 2 || misses != 0 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/0", hits, misses)
	}

	// Re-register the same artifact as v2: the smoke check trivially
	// passes (bit-identical bundle) and v1 becomes the rollback target.
	if _, err := r.Register(key, path); err != nil {
		t.Fatal(err)
	}
	ref2, err := r.Promote(key, PromoteOptions{})
	if err != nil {
		t.Fatalf("promote v2: %v", err)
	}
	if ref2.Version != 2 {
		t.Fatalf("promoted version %d, want 2", ref2.Version)
	}
	l2, err := r.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Ref.Version != 2 {
		t.Fatalf("acquired version %d after promote, want 2", l2.Ref.Version)
	}

	back, err := r.Rollback(key)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback restored v%d, want v1", back.Version)
	}
	again, err := r.Rollback(key)
	if err != nil || again.Version != 2 {
		t.Fatalf("second rollback: v%d, %v; want v2", again.Version, err)
	}

	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Tenant != "acme" || s.Table != "census" || s.ActiveVersion != 2 ||
		s.PreviousVersion != 1 || len(s.Versions) != 2 {
		t.Fatalf("snapshot: %+v", s)
	}

	if _, err := r.Promote(key, PromoteOptions{Version: 7}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("promote v7: %v, want ErrUnknownVersion", err)
	}
	if _, err := r.Register(Key{}, path); err == nil {
		t.Fatal("register with empty key succeeded")
	}
}

func TestPromoteSmokeMismatch(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{SmokeQueries: 64})
	key := Key{Tenant: "acme", Table: "census"}

	p1 := writeArtifact(t, dir, "v1.cpi", 0.1)
	p2 := writeArtifact(t, dir, "v2.cpi", 0.2)
	if _, err := r.Register(key, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(key, PromoteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(key, p2); err != nil {
		t.Fatal(err)
	}

	// Alpha 0.2 produces narrower intervals than 0.1 — the bit-identity
	// check must refuse and leave v1 serving.
	_, err := r.Promote(key, PromoteOptions{})
	if !errors.Is(err, ErrSmokeMismatch) {
		t.Fatalf("promote mismatched candidate: %v, want ErrSmokeMismatch", err)
	}
	if got := r.met.smokeMismatch.Value(); got != 1 {
		t.Fatalf("smoke mismatch counter = %d, want 1", got)
	}
	l, err := r.Acquire(key)
	if err != nil || l.Ref.Version != 1 {
		t.Fatalf("after failed promote: v%d, %v; want v1 serving", l.Ref.Version, err)
	}

	// Force acknowledges the intentional difference.
	ref, err := r.Promote(key, PromoteOptions{Force: true})
	if err != nil || ref.Version != 2 {
		t.Fatalf("forced promote: %v (v%d)", err, ref.Version)
	}
	l, err = r.Acquire(key)
	if err != nil || l.Ref.Version != 2 {
		t.Fatalf("after forced promote: v%d, %v", l.Ref.Version, err)
	}
}

func TestPromoteCorruptCandidateFailsClosed(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{})
	key := Key{Tenant: "acme", Table: "census"}

	p1 := writeArtifact(t, dir, "v1.cpi", 0.1)
	if _, err := r.Register(key, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(key, PromoteOptions{}); err != nil {
		t.Fatal(err)
	}

	// Flip one bit deep in a payload section: the manifest still reads
	// fine, so registration succeeds — the corruption must be caught by
	// the promote's full load.
	corrupt := append([]byte(nil), artifactBytes(t, 0.1)...)
	corrupt[len(corrupt)-20] ^= 0x40
	p2 := filepath.Join(dir, "v2.cpi")
	if err := os.WriteFile(p2, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(key, p2); err != nil {
		t.Fatalf("register corrupt-payload artifact: %v (manifest is intact, must succeed)", err)
	}
	_, err := r.Promote(key, PromoteOptions{})
	if !errors.Is(err, ErrCandidate) {
		t.Fatalf("promote corrupt candidate: %v, want ErrCandidate", err)
	}
	if !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("promote corrupt candidate: %v, want wrapped codec.ErrChecksum", err)
	}
	if got := r.met.smokeLoadFail.Value(); got != 1 {
		t.Fatalf("candidate_unloadable counter = %d, want 1", got)
	}
	l, err := r.Acquire(key)
	if err != nil || l.Ref.Version != 1 {
		t.Fatalf("after corrupt promote: v%d, %v; want v1 serving", l.Ref.Version, err)
	}

	// A vanished candidate file fails the same way.
	p3 := writeArtifact(t, dir, "v3.cpi", 0.1)
	if _, err := r.Register(key, p3); err != nil {
		t.Fatal(err)
	}
	os.Remove(p3)
	if _, err := r.Promote(key, PromoteOptions{Version: 3}); !errors.Is(err, ErrCandidate) {
		t.Fatalf("promote vanished candidate: %v, want ErrCandidate", err)
	}
}

func TestLRUEvictionThenReloadBitIdentity(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{CacheSize: 1})
	keyA := Key{Tenant: "acme", Table: "census"}
	keyB := Key{Tenant: "globex", Table: "census"}
	path := writeArtifact(t, dir, "a.cpi", 0.1)

	for _, k := range []Key{keyA, keyB} {
		if _, err := r.Register(k, path); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Promote(k, PromoteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Promoting B evicted A's promote-time load (capacity 1), so this
	// Acquire cold-loads A...
	lA, err := r.Acquire(keyA)
	if err != nil {
		t.Fatal(err)
	}
	want := intervalVector(t, lA.Setup, 64)
	// ...and acquiring B evicts A again.
	if _, err := r.Acquire(keyB); err != nil {
		t.Fatal(err)
	}
	if got := r.met.evictions.Value(); got == 0 {
		t.Fatal("no evictions recorded at cache capacity 1")
	}
	lA2, err := r.Acquire(keyA)
	if err != nil {
		t.Fatal(err)
	}
	if lA2 == lA {
		t.Fatal("second acquire returned the evicted load object (no reload happened)")
	}
	if got := intervalVector(t, lA2.Setup, 64); !sameVector(want, got) {
		t.Fatal("reloaded bundle is not bit-identical to the evicted one")
	}
	if r.met.cached.Value() != 1 {
		t.Fatalf("bundles_cached gauge = %d, want 1", r.met.cached.Value())
	}
}

func TestEvictAndForget(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{})
	key := Key{Tenant: "acme", Table: "census"}
	path := writeArtifact(t, dir, "a.cpi", 0.1)
	if _, err := r.Register(key, path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(key, PromoteOptions{}); err != nil {
		t.Fatal(err)
	}
	dropped, err := r.Evict(key, false)
	if err != nil || dropped != 1 {
		t.Fatalf("evict: dropped %d, %v; want 1", dropped, err)
	}
	// Active selection survives eviction; the next request reloads.
	l, err := r.Acquire(key)
	if err != nil || l.Ref.Version != 1 {
		t.Fatalf("acquire after evict: v%d, %v", l.Ref.Version, err)
	}
	if _, err := r.Evict(key, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(key); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("acquire after forget: %v, want ErrUnknownKey", err)
	}
	if _, err := r.Evict(Key{Tenant: "nope", Table: "nope"}, false); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("evict unknown: %v, want ErrUnknownKey", err)
	}
}

// TestAcquireFaultAfterFileLoss: an active-but-unloadable bundle is a
// fault, not a 404 — the typed registration errors must NOT match, and the
// fault counter must advance, so the serve layer can degrade to its
// fallback chain.
func TestAcquireFaultAfterFileLoss(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{})
	key := Key{Tenant: "acme", Table: "census"}
	path := writeArtifact(t, dir, "a.cpi", 0.1)
	if _, err := r.Register(key, path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(key, PromoteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Evict(key, false); err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	_, err := r.Acquire(key)
	if err == nil {
		t.Fatal("acquire of vanished bundle succeeded")
	}
	if errors.Is(err, ErrUnknownKey) || errors.Is(err, ErrNotPromoted) {
		t.Fatalf("fault classified as routing error: %v", err)
	}
	if got := r.met.faults.Value(); got != 1 {
		t.Fatalf("faults counter = %d, want 1", got)
	}
}

// TestConcurrentPromoteRollbackNoTornReads is the -race swap suite: readers
// hammer Acquire and evaluate a fixed probe workload while a writer
// force-promotes and rolls back between two genuinely different bundles.
// Every acquired bundle must produce an interval vector matching exactly
// one of the two precomputed vectors — a mixed vector would mean a torn
// read across the swap.
func TestConcurrentPromoteRollbackNoTornReads(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, Options{CacheSize: 4})
	key := Key{Tenant: "acme", Table: "census"}
	p1 := writeArtifact(t, dir, "v1.cpi", 0.1)
	p2 := writeArtifact(t, dir, "v2.cpi", 0.2)
	if _, err := r.Register(key, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(key, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(key, PromoteOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}

	// Precompute the two legal vectors by promoting each version in turn.
	l1, err := r.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}
	want1 := intervalVector(t, l1.Setup, 32)
	if _, err := r.Promote(key, PromoteOptions{Version: 2, Force: true}); err != nil {
		t.Fatal(err)
	}
	l2, err := r.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}
	want2 := intervalVector(t, l2.Setup, 32)
	if sameVector(want1, want2) {
		t.Fatal("fixture bug: the two bundles produce identical vectors")
	}

	const readers = 4
	const perReader = 40
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	// Writer: promote/rollback churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if i%2 == 0 {
				if _, err := r.Rollback(key); err != nil {
					errCh <- fmt.Errorf("rollback %d: %w", i, err)
					return
				}
			} else {
				if _, err := r.Promote(key, PromoteOptions{Version: 2, Force: true}); err != nil {
					errCh <- fmt.Errorf("promote %d: %w", i, err)
					return
				}
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				l, err := r.Acquire(key)
				if err != nil {
					errCh <- fmt.Errorf("acquire: %w", err)
					return
				}
				got := make([]uint64, 0, 64)
				for _, lq := range l.Setup.Cal.Queries[:32] {
					iv, err := cardpi.IntervalCtx(context.Background(), l.Setup.PI, lq.Query)
					if err != nil {
						errCh <- fmt.Errorf("interval: %w", err)
						return
					}
					got = append(got, math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
				}
				v1 := sameVector(got, want1)
				v2 := sameVector(got, want2)
				if !v1 && !v2 {
					errCh <- fmt.Errorf("torn read: vector matches neither version")
					return
				}
				if (l.Ref.Version == 1) != v1 {
					errCh <- fmt.Errorf("acquired ref v%d but vector matches other version", l.Ref.Version)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

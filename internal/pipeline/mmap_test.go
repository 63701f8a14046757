package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/workload"
)

// writeTempArtifact saves the bundle bytes to a temp file and returns its
// path.
func writeTempArtifact(t *testing.T, art []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.cpi")
	if err := os.WriteFile(path, art, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedBundleBitIdentity proves the mmap load path is interchangeable
// with the copying LoadBundle path: same manifest, zero trainings, and
// bit-identical intervals over a probe workload — including after Close,
// since the Setup must own only heap memory.
func TestMappedBundleBitIdentity(t *testing.T) {
	art, _ := buildSmallBundle(t)
	path := writeTempArtifact(t, art)

	ref, _, err := LoadBundle(bytes.NewReader(art), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	mb, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Size() != int64(len(art)) {
		t.Fatalf("Size() = %d, want %d", mb.Size(), len(art))
	}
	if mb.Manifest().Model != "histogram" || mb.Manifest().Method != "s-cp" {
		t.Fatalf("manifest records %s/%s", mb.Manifest().Model, mb.Manifest().Method)
	}
	trained := 0
	OnTrain = func(string) { trained++ }
	got, err := mb.Load(LoadOptions{})
	OnTrain = nil
	if err != nil {
		t.Fatal(err)
	}
	if trained != 0 {
		t.Fatalf("mmap load invoked %d training code paths", trained)
	}
	if err := mb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	probe, err := workload.Generate(ref.Table, workload.Config{
		Count: 300, Seed: 99, MinPreds: minPreds, MaxPreds: maxPreds,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The mapping is gone; every interval must still come out bit-identical
	// to the copy-load path.
	for qi, lq := range probe.Queries {
		want, wantErr := cardpi.IntervalCtx(context.Background(), ref.PI, lq.Query)
		have, haveErr := cardpi.IntervalCtx(context.Background(), got.PI, lq.Query)
		if (wantErr == nil) != (haveErr == nil) {
			t.Fatalf("query %d error mismatch: %v vs %v", qi, wantErr, haveErr)
		}
		if want != have {
			t.Fatalf("query %d interval [%v,%v] != [%v,%v] via mmap",
				qi, want.Lo, want.Hi, have.Lo, have.Hi)
		}
	}
}

// TestManifestLayoutSpans checks the recorded spans against the actual file
// bytes: slicing each section's span out of the body must reproduce exactly
// the payload the manifest's CRC-32 binds, and AbsoluteOffset must agree
// with a from-scratch parse of the file.
func TestManifestLayoutSpans(t *testing.T) {
	art, _ := buildSmallBundle(t)
	man, err := ReadManifest(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Layout) != len(man.Sections) {
		t.Fatalf("layout covers %d sections, manifest declares %d", len(man.Layout), len(man.Sections))
	}
	name, _, manFrameLen, err := codec.ParseSection(art[4:])
	if err != nil || name != "manifest" {
		t.Fatalf("manifest frame: %q, %v", name, err)
	}
	body := art[4+manFrameLen:]
	for name, span := range man.Layout {
		if span.Offset < 0 || span.Offset+span.Length > int64(len(body)) {
			t.Fatalf("section %q span [%d,+%d) out of body bounds %d", name, span.Offset, span.Length, len(body))
		}
		payload := body[span.Offset : span.Offset+span.Length]
		if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)); got != man.Sections[name] {
			t.Fatalf("section %q sliced by span has CRC %s, manifest declares %s", name, got, man.Sections[name])
		}
		abs := span.AbsoluteOffset(manFrameLen)
		if !bytes.Equal(art[abs:abs+span.Length], payload) {
			t.Fatalf("section %q AbsoluteOffset %d disagrees with body-relative slice", name, abs)
		}
	}
}

// TestMappedBundleNoLayoutFallback exercises the sequential-scan path: an
// artifact written without the Layout field (as every pre-Layout artifact
// was) must still open, and load bit-identically to LoadBundle.
func TestMappedBundleNoLayoutFallback(t *testing.T) {
	cfg := testConfig("histogram", "s-cp")
	setup, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveBundle(&buf, setup, cfg, false); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Layout) != 0 {
		t.Fatalf("withLayout=false still wrote %d layout spans", len(man.Layout))
	}

	mb, err := OpenMapped(writeTempArtifact(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	got, err := mb.Load(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := workload.Generate(setup.Table, workload.Config{
		Count: 100, Seed: 99, MinPreds: minPreds, MaxPreds: maxPreds,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, lq := range probe.Queries {
		want, _ := cardpi.IntervalCtx(context.Background(), setup.PI, lq.Query)
		have, _ := cardpi.IntervalCtx(context.Background(), got.PI, lq.Query)
		if want != have {
			t.Fatalf("query %d interval mismatch on scan-fallback load", qi)
		}
	}
}

// TestOpenMappedCorruption is the fail-closed matrix for the mapped path:
// the same corruption modes LoadBundle rejects must be rejected at open
// time with the same typed errors, and none may panic.
func TestOpenMappedCorruption(t *testing.T) {
	art, _ := buildSmallBundle(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { b[0] = 'X'; return b },
			wantErr: ErrNotArtifact,
		},
		{
			name:    "tiny file",
			mutate:  func(b []byte) []byte { return b[:3] },
			wantErr: ErrNotArtifact,
		},
		{
			name:    "future version",
			mutate:  func(b []byte) []byte { b[3] = 99; return b },
			wantErr: ErrSchemaVersion,
		},
		{
			// With a Layout present, truncation surfaces as a span that
			// exceeds the file body rather than a short read — a different
			// classification than LoadBundle's ErrTruncated, but equally
			// fail-closed.
			name:    "truncated mid-section",
			mutate:  func(b []byte) []byte { return b[:len(b)-10] },
			wantErr: ErrBadBundle,
		},
		{
			name: "truncated mid-section without layout",
			mutate: func(b []byte) []byte {
				b = rewriteLayout(t, b, func(l map[string]SectionSpan) {
					for k := range l {
						delete(l, k)
					}
				})
				return b[:len(b)-10]
			},
			wantErr: codec.ErrTruncated,
		},
		{
			name: "payload bitflip",
			mutate: func(b []byte) []byte {
				b[len(b)-20] ^= 0x40
				return b
			},
			wantErr: codec.ErrChecksum,
		},
		{
			name: "layout span out of bounds",
			mutate: func(b []byte) []byte {
				return rewriteLayout(t, b, func(l map[string]SectionSpan) {
					s := l["model"]
					s.Offset += 1 << 20
					l["model"] = s
				})
			},
			wantErr: ErrBadBundle,
		},
		{
			name: "layout span misaligned",
			mutate: func(b []byte) []byte {
				return rewriteLayout(t, b, func(l map[string]SectionSpan) {
					s := l["model"]
					s.Offset++
					l["model"] = s
				})
			},
			wantErr: codec.ErrChecksum,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), art...))
			mb, err := OpenMapped(writeTempArtifact(t, mut))
			if err == nil {
				mb.Close()
				t.Fatal("OpenMapped accepted a corrupt artifact")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
		})
	}

	t.Run("closed bundle load", func(t *testing.T) {
		mb, err := OpenMapped(writeTempArtifact(t, art))
		if err != nil {
			t.Fatal(err)
		}
		mb.Close()
		if _, err := mb.Load(LoadOptions{}); !errors.Is(err, ErrBadBundle) {
			t.Fatalf("Load after Close: %v, want ErrBadBundle", err)
		}
	})
}

// rewriteLayout re-encodes the artifact with a mutated Layout map (fixing
// up the manifest section's own framing and CRC so only the layout lie is
// detectable). Used to prove span validation fails closed.
func rewriteLayout(t *testing.T, art []byte, mutate func(map[string]SectionSpan)) []byte {
	t.Helper()
	name, payload, frameLen, err := codec.ParseSection(art[4:])
	if err != nil || name != "manifest" {
		t.Fatalf("manifest frame: %q, %v", name, err)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		t.Fatal(err)
	}
	mutate(man.Layout)
	// Keep the encoded manifest the same length so the relative offsets of
	// the following sections stay true: the JSON number widths may change,
	// so re-frame instead of patching in place.
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(art[:4])
	if _, err := codec.WriteSection(&out, "manifest", manJSON); err != nil {
		t.Fatal(err)
	}
	out.Write(art[4+frameLen:])
	return out.Bytes()
}

// TestParseSectionZeroCopy pins the zero-copy contract of
// codec.ParseSection: the returned payload aliases the input buffer, and
// frameLen walks exactly to the next frame.
func TestParseSectionZeroCopy(t *testing.T) {
	var buf bytes.Buffer
	if _, err := codec.WriteSection(&buf, "alpha", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.WriteSection(&buf, "beta", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	name, payload, frameLen, err := codec.ParseSection(data)
	if err != nil || name != "alpha" || string(payload) != "payload-a" {
		t.Fatalf("first frame: %q %q %v", name, payload, err)
	}
	// Aliasing: mutating the backing buffer must show through the payload.
	idx := bytes.Index(data, []byte("payload-a"))
	data[idx] = 'P'
	if payload[0] != 'P' {
		t.Fatal("payload does not alias the input buffer")
	}
	data[idx] = 'p'

	name2, payload2, _, err := codec.ParseSection(data[frameLen:])
	if err != nil || name2 != "beta" || string(payload2) != "payload-b" {
		t.Fatalf("second frame: %q %q %v", name2, payload2, err)
	}

	// Corrupting the first payload after the CRC was written must fail the
	// parse with ErrChecksum; truncating must fail with ErrTruncated.
	data[idx] ^= 0xff
	if _, _, _, err := codec.ParseSection(data); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("bitflip: %v, want ErrChecksum", err)
	}
	data[idx] ^= 0xff
	for _, cut := range []int{0, 3, 4, frameLen - 1} {
		if _, _, _, err := codec.ParseSection(data[:cut]); !errors.Is(err, codec.ErrTruncated) {
			t.Fatalf("cut=%d: %v, want ErrTruncated", cut, err)
		}
	}
	// A corrupt name length must not be treated as truncation.
	var bad [4]byte
	binary.LittleEndian.PutUint32(bad[:], 1<<20)
	if _, _, _, err := codec.ParseSection(append(bad[:], data[4:]...)); err == nil || errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("bad name length: %v", err)
	}
}

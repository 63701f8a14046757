package pipeline

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/workload"
)

// testConfig is the shared fast-build configuration: small table, short
// trainings, every family still exercised end to end.
func testConfig(model, method string) Config {
	return Config{
		Dataset: "census", Model: model, Method: method,
		Alpha: 0.1, Rows: 2000, Queries: 300, Seed: 1, Epochs: 2,
	}
}

// TestBundleRoundTripAllCombos proves the artifact contract for every valid
// model x method pair: saving and loading a bundle yields bit-identical
// Interval(q) results over a 500-query probe workload, with zero training
// during the load.
func TestBundleRoundTripAllCombos(t *testing.T) {
	for _, model := range Models {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			cfg := testConfig(model.Name, "s-cp")
			base, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := workload.Generate(base.Table, workload.Config{
				Count: 500, Seed: 99, MinPreds: minPreds, MaxPreds: maxPreds,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range Methods {
				if method.NeedsPinball && !model.Pinball {
					continue
				}
				cfg.Method = method.Name
				// Reuse the trained model and split; only the method's
				// calibration (and cqr's quantile models) is rebuilt.
				pi, err := BuildPI(cfg, base.Model, base.Table, base.Train, base.Cal)
				if err != nil {
					t.Fatalf("%s: %v", method.Name, err)
				}
				setup := &Setup{Table: base.Table, Model: base.Model, PI: pi, Train: base.Train, Cal: base.Cal}

				var buf bytes.Buffer
				if err := SaveBundle(&buf, setup, cfg); err != nil {
					t.Fatalf("%s: save: %v", method.Name, err)
				}
				var buf2 bytes.Buffer
				if err := SaveBundle(&buf2, setup, cfg); err != nil {
					t.Fatalf("%s: re-save: %v", method.Name, err)
				}
				if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
					t.Fatalf("%s: artifact bytes are not reproducible", method.Name)
				}

				trained := 0
				OnTrain = func(string) { trained++ }
				loaded, man, err := LoadBundle(bytes.NewReader(buf.Bytes()), LoadOptions{})
				OnTrain = nil
				if err != nil {
					t.Fatalf("%s: load: %v", method.Name, err)
				}
				if trained != 0 {
					t.Fatalf("%s: load invoked %d training code paths", method.Name, trained)
				}
				if man.Model != model.Name || man.Method != method.Name {
					t.Fatalf("%s: manifest records %s/%s", method.Name, man.Model, man.Method)
				}
				if loaded.Train != nil {
					t.Fatalf("%s: loaded setup has a training split", method.Name)
				}
				if len(loaded.Cal.Queries) != len(base.Cal.Queries) {
					t.Fatalf("%s: calibration workload %d queries, want %d",
						method.Name, len(loaded.Cal.Queries), len(base.Cal.Queries))
				}
				for qi, lq := range probe.Queries {
					want, wantErr := cardpi.IntervalCtx(context.Background(), pi, lq.Query)
					got, gotErr := cardpi.IntervalCtx(context.Background(), loaded.PI, lq.Query)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: query %d error mismatch: %v vs %v", method.Name, qi, wantErr, gotErr)
					}
					if want != got {
						t.Fatalf("%s: query %d interval [%v,%v] != [%v,%v] after reload",
							method.Name, qi, want.Lo, want.Hi, got.Lo, got.Hi)
					}
				}
			}
		})
	}
}

// buildSmallBundle builds one cheap artifact for the corruption tests.
func buildSmallBundle(t *testing.T) ([]byte, Config) {
	t.Helper()
	cfg := testConfig("histogram", "s-cp")
	setup, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveBundle(&buf, setup, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cfg
}

// TestLoadBundleCorruption is the fail-closed matrix: every corruption mode
// must produce its distinct typed error, and none may panic.
func TestLoadBundleCorruption(t *testing.T) {
	art, _ := buildSmallBundle(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		opts    LoadOptions
		wantErr error
	}{
		{
			name:    "truncated file",
			mutate:  func(b []byte) []byte { return b[:len(b)/2] },
			wantErr: codec.ErrTruncated,
		},
		{
			name: "flipped payload byte",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[len(c)-20] ^= 0xff // inside the last section's payload
				return c
			},
			wantErr: codec.ErrChecksum,
		},
		{
			name: "wrong schema version",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[3] = 99 // version byte lives outside every checksum
				return c
			},
			wantErr: ErrSchemaVersion,
		},
		{
			name:    "model mismatch",
			mutate:  func(b []byte) []byte { return b },
			opts:    LoadOptions{ExpectModel: "mscn"},
			wantErr: ErrMismatch,
		},
		{
			name:    "method mismatch",
			mutate:  func(b []byte) []byte { return b },
			opts:    LoadOptions{ExpectMethod: "cqr"},
			wantErr: ErrMismatch,
		},
		{
			name:    "not an artifact",
			mutate:  func(b []byte) []byte { return []byte("PK\x03\x04 definitely a zip") },
			wantErr: ErrNotArtifact,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := LoadBundle(bytes.NewReader(tc.mutate(art)), tc.opts)
			if err == nil {
				t.Fatal("corrupt artifact loaded without error")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
		})
	}
}

// TestLoadBundleMissingSection drops the final section entirely: the
// manifest's section list must catch the absence.
func TestLoadBundleMissingSection(t *testing.T) {
	art, _ := buildSmallBundle(t)
	// Walk the sections to find where the last one starts, then cut there.
	r := bytes.NewReader(art)
	if _, err := ReadHeader(r); err != nil {
		t.Fatal(err)
	}
	lastStart := int64(len(art)) - int64(r.Len())
	for {
		before := int64(len(art)) - int64(r.Len())
		if _, _, err := codec.ReadSection(r); err != nil {
			break
		}
		lastStart = before
	}
	_, _, err := LoadBundle(bytes.NewReader(art[:lastStart]), LoadOptions{})
	if err == nil {
		t.Fatal("bundle with missing section loaded")
	}
	if !errors.Is(err, ErrBadBundle) {
		t.Fatalf("error %v does not wrap ErrBadBundle", err)
	}
}

// TestReadManifest checks the inspect path parses provenance without
// needing the table or any model bytes.
func TestReadManifest(t *testing.T) {
	art, cfg := buildSmallBundle(t)
	man, err := ReadManifest(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if man.Model != cfg.Model || man.Method != cfg.Method || man.Rows != cfg.Rows ||
		man.Seed != cfg.Seed || man.SchemaVersion != SchemaVersion {
		t.Fatalf("manifest %+v does not match build config", man)
	}
	for _, want := range []string{"model", "calibration", "calwl"} {
		if _, ok := man.Sections[want]; !ok {
			t.Fatalf("manifest missing section checksum for %q", want)
		}
	}
}

// TestValidateCombo pins the source-of-truth table's error text: every
// consumer (train, serve, usage) shares these messages.
func TestValidateCombo(t *testing.T) {
	cases := []struct {
		model, method, wantSub string
	}{
		{"spn", "s-cp", ""},
		{"mscn", "cqr", ""},
		{"nope", "s-cp", "unknown model"},
		{"spn", "nope", "unknown method"},
		{"spn", "cqr", "pinball"},
		{"histogram", "cqr", "pinball"},
	}
	for _, tc := range cases {
		err := ValidateCombo(tc.model, tc.method)
		if tc.wantSub == "" {
			if err != nil {
				t.Fatalf("%s/%s: unexpected error %v", tc.model, tc.method, err)
			}
			continue
		}
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.wantSub)) {
			t.Fatalf("%s/%s: error %v does not mention %q", tc.model, tc.method, err, tc.wantSub)
		}
	}
	help := ComboHelp()
	for _, want := range []string{"s-cp, lw-s-cp, lcp, mondrian", "cqr", "mscn | lwnn", "spn/naru/histogram"} {
		if !bytes.Contains([]byte(help), []byte(want)) {
			t.Fatalf("ComboHelp missing %q:\n%s", want, help)
		}
	}
}

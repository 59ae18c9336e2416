package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// fuzzServer is a real Server whose request decoders the fuzz targets
// drive; nothing is ever submitted to its scheduler.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	sched, err := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(sched.Close)
	cache, err := NewCache(1)
	if err != nil {
		f.Fatal(err)
	}
	return NewServer(sched, cache)
}

// fuzzRequest wraps body as the POST the decoders read, with the
// recorder that receives any 400.
func fuzzRequest(path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// specWork is the admission charge Validate bounds by MaxWork:
// steps × replications × per-step cost plus the per-replication
// topology setup.
func specWork(t *testing.T, spec *Spec) int64 {
	var edges int64
	if spec.Topology != nil {
		var err error
		if _, edges, err = spec.Topology.size(); err != nil {
			t.Fatalf("accepted spec has an invalid topology: %v", err)
		}
	}
	reps := int64(spec.Replications)
	return int64(spec.Steps)*reps*spec.perStepCost() + reps*edges
}

// malformedBodies seed both decoders with the shapes the strict
// decoder must reject.
var malformedBodies = []string{
	``,
	`{`,
	`null`,
	`[]`,
	`"spec"`,
	`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 10, "seed": 1} {"n": 1}`,
	`{"n": 1000, "qualities": [0.9, 0.5], "beta": 0.7, "steps": 10, "seed": 1, "bogus": 1}`,
	`{"n": -1, "qualities": [0.9], "beta": 0.7, "steps": 10}`,
	`{"n": 1e400, "qualities": [0.9], "beta": 0.7, "steps": 10}`,
	`{"n": 10, "qualities": [2], "beta": 0.7, "steps": 10}`,
	`{"n": 10, "qualities": [0.9], "beta": 0.7, "steps": 50000000, "replications": 50000000}`,
	`{"family": {"qualities": [0.9], "beta": 0.7}, "variants": []}`,
	`{"family": {"qualities": [0.9], "beta": 0.7}, "variants": [{"n": 10, "steps": 0}]}`,
}

// FuzzDecodeSpec drives the daemon's real spec decoder — the untrusted
// input behind POST /v1/simulate and /v1/jobs. Properties: no panic;
// an accepted spec validates again to the same hash; re-encoding the
// normalized spec and decoding it gives the same hash; accepted work
// is within MaxWork.
func FuzzDecodeSpec(f *testing.F) {
	for _, engine := range []string{`"n": 2000`, `"n": 300, "engine": "agent"`, `"n": 0`} {
		for _, order := range []string{``, `, "draw_order": "v2"`} {
			f.Add([]byte(`{` + engine + `, "qualities": [0.9, 0.5, 0.5], "beta": 0.7, "steps": 100, "replications": 3, "seed": 7` + order + `}`))
		}
	}
	f.Add([]byte(`{"qualities": [0.8, 0.4], "beta": 0.65, "alpha": 0.35, "mu": 0.01, "steps": 200, "seed": 3, "trace_every": 10, "topology": {"kind": "ring", "nodes": 64}, "priority": "batch"}`))
	for _, body := range malformedBodies {
		f.Add([]byte(body))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w, r := fuzzRequest("/v1/simulate", body)
		spec, hash, ok := srv.decodeSpec(w, r)
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("rejected spec answered %d, want 400", w.Code)
			}
			return
		}
		again := spec
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted spec fails revalidation: %v", err)
		}
		if h, err := again.Hash(); err != nil || h != hash {
			t.Fatalf("revalidated hash %s (err %v), want %s", h, err, hash)
		}
		if work := specWork(t, &spec); work > MaxWork {
			t.Fatalf("accepted work %d exceeds MaxWork %d", work, int64(MaxWork))
		}
		enc, err := json.Marshal(&spec)
		if err != nil {
			t.Fatal(err)
		}
		w, r = fuzzRequest("/v1/simulate", enc)
		if _, h, ok := srv.decodeSpec(w, r); !ok || h != hash {
			t.Fatalf("re-encoded spec %s: ok=%v hash %s, want %s (%s)", enc, ok, h, hash, w.Body)
		}
	})
}

// FuzzDecodeSweep drives the daemon's real sweep decoder, behind POST
// /v1/sweep, with FuzzDecodeSpec's properties: no panic; an accepted
// sweep validates again to the same sweep and variant hashes;
// re-encoding it decodes to the same hashes; and the work summed over
// variants is within MaxWork.
func FuzzDecodeSweep(f *testing.F) {
	for _, order := range []string{``, `, "draw_order": "v2"`} {
		f.Add([]byte(`{"family": {"qualities": [0.9, 0.5, 0.5], "beta": 0.7` + order + `}, "variants": [` +
			`{"n": 2000, "steps": 100, "seed": 1, "replications": 3}, ` +
			`{"n": 300, "engine": "agent", "steps": 100, "seed": 2}, ` +
			`{"n": 0, "steps": 100, "seed": 3, "replications": 2}]}`))
	}
	f.Add([]byte(`{"family": {"qualities": [0.8, 0.4], "beta": 0.65, "alpha": 0.35, "mu": 0}, "variants": [{"n": 10, "steps": 5, "seed": 9}], "priority": "interactive"}`))
	for _, body := range malformedBodies {
		f.Add([]byte(body))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w, r := fuzzRequest("/v1/sweep", body)
		sweep, hash, hashes, ok := srv.decodeSweep(w, r)
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("rejected sweep answered %d, want 400", w.Code)
			}
			return
		}
		again := sweep
		again.Variants = slices.Clone(sweep.Variants)
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted sweep fails revalidation: %v", err)
		}
		if h, err := again.Hash(); err != nil || h != hash {
			t.Fatalf("revalidated hash %s (err %v), want %s", h, err, hash)
		}
		if hs, err := again.variantHashes(); err != nil || !slices.Equal(hs, hashes) {
			t.Fatalf("revalidated variant hashes %v (err %v), want %v", hs, err, hashes)
		}
		var total int64
		for i := range sweep.Variants {
			spec := sweep.variantSpec(i)
			total += specWork(t, &spec)
		}
		if total > MaxWork {
			t.Fatalf("accepted summed work %d exceeds MaxWork %d", total, int64(MaxWork))
		}
		enc, err := json.Marshal(&sweep)
		if err != nil {
			t.Fatal(err)
		}
		w, r = fuzzRequest("/v1/sweep", enc)
		if _, h, hs, ok := srv.decodeSweep(w, r); !ok || h != hash || !slices.Equal(hs, hashes) {
			t.Fatalf("re-encoded sweep %s: ok=%v hash %s, want %s (%s)", enc, ok, h, hash, w.Body)
		}
	})
}

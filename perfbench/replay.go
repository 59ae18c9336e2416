package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// timedStore is the store.Store decorator the traced run hands to
// service.NewCacheWithStore: it times every Get and Put, classifies a
// Get as a memory hit or a read-through disk hit (the Tiered op hook's
// "promote" event fires inside the call), and attaches each call to the
// op waiting on its key.
type timedStore struct {
	inner *store.Tiered[*service.Report]
	tc    *tracer
}

func (s *timedStore) Get(key string) (*service.Report, bool) {
	b := s.tc.bound(key)
	p0 := s.tc.promotes.Load()
	start := time.Now()
	v, ok := s.inner.Get(key)
	end := time.Now()
	if ok {
		if s.tc.promotes.Load() != p0 {
			s.tc.sample(&s.tc.getDisk, end.Sub(start))
		} else {
			s.tc.sample(&s.tc.getMem, end.Sub(start))
		}
	}
	if b.tr != nil {
		b.tr.add("store.get", b.parent, b.tr.since(start), b.tr.since(end))
	}
	return v, ok
}

func (s *timedStore) Put(key string, v *service.Report) {
	b := s.tc.bound(key)
	start := time.Now()
	s.inner.Put(key, v)
	end := time.Now()
	s.tc.sample(&s.tc.put, end.Sub(start))
	if b.tr != nil {
		b.tr.add("store.put", b.parent, b.tr.since(start), b.tr.since(end))
	}
}

func (s *timedStore) Len() int           { return s.inner.Len() }
func (s *timedStore) Stats() store.Stats { return s.inner.Stats() }
func (s *timedStore) Close() error       { return s.inner.Close() }

// replay serves the work routes in the traced run. It makes the same
// public calls, in the same order, as service.Server's handlers, and
// times each one as a child span of the request: strict decode,
// Validate, Hash, the cache's single-flight, scheduler admission, the
// job's lifetime, and the JSON encode of the response.
type replay struct {
	sched *service.Scheduler
	cache *service.Cache
	tc    *tracer
}

// maxBody is the service's request body bound.
const maxBody = 1 << 20

// decodeStrict decodes body into v the way the service does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a failed write means the client left
}

// writeErr maps an error onto the status service.Server answers with.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, service.ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, service.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, service.ErrJobTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, service.ErrBadSpec):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readSpec reads, decodes, validates and hashes a spec body, one span
// per call.
func readSpec(r *http.Request, tr *opTrace, parent int) (service.Spec, string, error) {
	var spec service.Spec
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		return spec, "", err
	}
	sid := tr.open("spec.decode", parent)
	err = decodeStrict(body, &spec)
	tr.close(sid)
	if err != nil {
		return spec, "", fmt.Errorf("%w: decode spec: %v", service.ErrBadSpec, err)
	}
	sid = tr.open("spec.validate", parent)
	err = spec.Validate()
	tr.close(sid)
	if err != nil {
		return spec, "", err
	}
	sid = tr.open("spec.hash", parent)
	hash, err := spec.Hash()
	tr.close(sid)
	return spec, hash, err
}

type simulateResponse struct {
	Cached bool `json:"cached"`
	*service.Report
}

func (rp *replay) simulate(w http.ResponseWriter, r *http.Request) {
	tr, hs := traceFrom(r.Context())
	spec, hash, err := readSpec(r, tr, hs)
	if err != nil {
		writeErr(w, err)
		return
	}
	order := orderName(spec.DrawOrder)
	cd := tr.open("cache.do", hs)
	keys := []string{hash}
	rp.tc.bind(keys, tr, cd)
	report, cached, err := rp.cache.Do(r.Context(), hash, func() (*service.Report, error) {
		cs := tr.open("sched", cd)
		defer tr.close(cs)
		as := tr.open("sched.admit", cs)
		job, err := rp.sched.SubmitValidated(spec, hash)
		tr.close(as)
		if err != nil {
			return nil, err
		}
		tr.noteJob(job, as, cs, order)
		if err := job.Wait(context.Background()); err != nil {
			return nil, err
		}
		if err := job.Err(); err != nil {
			return nil, err
		}
		return job.Report(), nil
	})
	rp.tc.unbind(keys)
	tr.close(cd)
	if err != nil {
		writeErr(w, err)
		return
	}
	es := tr.open("http.encode", hs)
	writeJSON(w, http.StatusOK, simulateResponse{Cached: cached, Report: report})
	tr.close(es)
}

func (rp *replay) submitJob(w http.ResponseWriter, r *http.Request) {
	tr, hs := traceFrom(r.Context())
	spec, hash, err := readSpec(r, tr, hs)
	if err != nil {
		writeErr(w, err)
		return
	}
	as := tr.open("sched.admit", hs)
	job, err := rp.sched.SubmitValidated(spec, hash)
	tr.close(as)
	if err != nil {
		writeErr(w, err)
		return
	}
	tr.noteJob(job, as, -1, orderName(spec.DrawOrder))
	es := tr.open("http.encode", hs)
	writeJSON(w, http.StatusAccepted, jobBody{ID: job.ID(), SpecHash: hash, Status: string(job.Status())})
	tr.close(es)
}

type sweepResult struct {
	Cached bool `json:"cached"`
	*service.Report
}

type sweepResponse struct {
	SweepHash      string        `json:"sweep_hash"`
	Variants       int           `json:"variants"`
	CachedVariants int           `json:"cached_variants"`
	Results        []sweepResult `json:"results"`
}

func (rp *replay) sweep(w http.ResponseWriter, r *http.Request) {
	tr, hs := traceFrom(r.Context())
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		writeErr(w, err)
		return
	}
	var sw service.SweepSpec
	sid := tr.open("spec.decode", hs)
	err = decodeStrict(body, &sw)
	tr.close(sid)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: decode spec: %v", service.ErrBadSpec, err))
		return
	}
	sid = tr.open("spec.validate", hs)
	err = sw.Validate()
	tr.close(sid)
	if err != nil {
		writeErr(w, err)
		return
	}
	sid = tr.open("spec.hash", hs)
	sweepHash, err := sw.Hash()
	hashes := make([]string, len(sw.Variants))
	for i := range sw.Variants {
		if err != nil {
			break
		}
		spec := variantSpec(&sw, i)
		hashes[i], err = spec.Hash()
	}
	tr.close(sid)
	if err != nil {
		writeErr(w, err)
		return
	}

	results := make([]sweepResult, len(sw.Variants))
	residual := service.SweepSpec{Family: sw.Family, Priority: sw.Priority}
	var residualIdx []int
	var residualHashes []string
	var publishers []func(*service.Report, error)
	type joined struct {
		i    int
		wait func(context.Context) (*service.Report, error)
	}
	var joins []joined
	cachedCount := 0
	cs := tr.open("cache.acquire", hs)
	rp.tc.bind(hashes, tr, cs)
	defer rp.tc.unbind(hashes)
	for i := range sw.Variants {
		report, publish, wait := rp.cache.Acquire(hashes[i])
		switch {
		case report != nil:
			results[i] = sweepResult{Cached: true, Report: report}
			cachedCount++
		case wait != nil:
			joins = append(joins, joined{i, wait})
			cachedCount++
		default:
			residual.Variants = append(residual.Variants, sw.Variants[i])
			residualIdx = append(residualIdx, i)
			residualHashes = append(residualHashes, hashes[i])
			publishers = append(publishers, publish)
		}
	}
	tr.close(cs)
	fail := func(err error) {
		for _, publish := range publishers {
			publish(nil, err)
		}
		writeErr(w, err)
	}
	if len(residualIdx) > 0 {
		as := tr.open("sched.admit", hs)
		job, err := rp.sched.SubmitSweep(residual, sweepHash, residualHashes)
		tr.close(as)
		if err != nil {
			fail(err)
			return
		}
		tr.noteJob(job, as, hs, orderName(sw.Family.DrawOrder))
		if err := job.Wait(context.Background()); err != nil {
			fail(err)
			return
		}
		if err := job.Err(); err != nil {
			fail(err)
			return
		}
		ps := tr.open("cache.publish", hs)
		rp.tc.bind(residualHashes, tr, ps)
		for k, report := range job.Reports() {
			publishers[k](report, nil)
			results[residualIdx[k]] = sweepResult{Cached: false, Report: report}
		}
		tr.close(ps)
	}
	for _, jn := range joins {
		report, err := jn.wait(r.Context())
		if err != nil {
			writeErr(w, err)
			return
		}
		results[jn.i] = sweepResult{Cached: true, Report: report}
	}
	es := tr.open("http.encode", hs)
	writeJSON(w, http.StatusOK, sweepResponse{
		SweepHash: sweepHash, Variants: len(sw.Variants), CachedVariants: cachedCount, Results: results,
	})
	tr.close(es)
}

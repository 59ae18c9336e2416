package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "a.1", parent: 1, start: 15, end: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestReportBytes(t *testing.T) {
	hash := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	report := `{"spec_hash":"` + hash + `","steps":10}`
	for _, raw := range []string{
		`{"cached":true,"spec_hash":"` + hash + `","steps":10}` + "\n",
		`{"cached":false,"spec_hash":"` + hash + `","steps":10}`,
		report,
	} {
		rep, h, err := reportBytes([]byte(raw))
		if err != nil || h != hash || string(rep) != report {
			t.Errorf("reportBytes(%q) = %q, %q, %v", raw, rep, h, err)
		}
	}
	if _, _, err := reportBytes([]byte(`{"error":"overloaded"}`)); err == nil {
		t.Error("reportBytes accepted an error body")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(vals, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

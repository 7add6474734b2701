package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathmark/internal/crt"
	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// gradeBody is a body shaped like a serve-grade submission: a marked
// Jess-like copy (60 methods of 150 instructions, 128 pieces) and a
// marked CaffeineMark-like copy (64 pieces) against one 128-bit key,
// about 1.5 MB of JSON. keyDoc is that key's document.
var gradeBody = sync.OnceValues(func() (body []byte, err error) {
	key, err := wm.NewKey(nil, feistel.KeyFromUint64(0x5eed, 0xfeed), 128)
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := wm.SaveKey(&doc, key); err != nil {
		return nil, err
	}
	req := serveRequest{Keys: []string{doc.String()}}
	for _, h := range []struct {
		host   *vm.Program
		pieces int
	}{
		{workloads.JessLike(workloads.JessLikeOptions{Seed: 1, Methods: 60, BlockSize: 150}), 128},
		{workloads.CaffeineMark(), 64},
	} {
		marked, _, err := wm.Embed(h.host, wm.RandomWatermark(128, 7), key, wm.EmbedOptions{Seed: 1, Pieces: h.pieces})
		if err != nil {
			return nil, err
		}
		req.Suspects = append(req.Suspects, vm.Dump(marked))
	}
	return json.Marshal(req)
})

func mustGradeBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := gradeBody()
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// requestSeeds are the request-surface fuzz seeds: the grade body and a
// stream job under its key, the two oversized-key probes wrapped in a
// request, \u escapes, surrogates and invalid UTF-8, folded and escaped
// field names, repeated fields, non-object bodies, and nesting at and
// past encoding/json's depth limit.
func requestSeeds(tb testing.TB) [][]byte {
	body := mustGradeBody(tb)
	var grade serveRequest
	if err := json.Unmarshal(body, &grade); err != nil {
		tb.Fatal(err)
	}
	gcd := vm.Dump(workloads.GCD())
	probe := func(primes []uint64) []byte {
		doc, err := json.Marshal(map[string]any{"version": 1, "cipher": []int{1, 2, 3, 4}, "primes": primes})
		if err != nil {
			tb.Fatal(err)
		}
		return mustJSON(tb, serveRequest{Suspects: []string{gcd}, Keys: []string{string(doc)}})
	}
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return [][]byte{
		body,
		mustJSON(tb, serveRequest{Keys: grade.Keys, Stream: true, Options: serveRequestOptions{CheckEvery: 1024}}),
		probe(append([]uint64{2}, crt.DefaultPrimes(2999, 2)...)),
		probe(crt.DefaultPrimes(3000, 16)),
		[]byte(`{"suspects":["A𐀀x","\ud800","\udffféz","a\nb\t\"\\\/\b\f\r"],"keys":["kÿ"]}`),
		[]byte("{\"suspects\":[\"a\xffb\xc3\",\"\xed\xa0\x80\"],\"keys\":[\"\xf0\x9f\x98\x80\"]}"),
		[]byte(`{"SUSPECTS":["a"],"Keys":["b"],"STREAM":true,"Options":{"workers":2}}`),
		[]byte(`{"ſuspects":["a"],"Keys":["b"],"suspects":["c"],"stReam":false}`),
		[]byte(`{"suspects":["a","b","c"],"suspects":["x"],"suspects":[null,null],"keys":["k"],"keys":null,` +
			`"stream":true,"stream":null,"options":{"workers":2},"options":{"check_every":5}}`),
		[]byte(`{"suspects":["a"],"keys":["b"],"options":{"step_limit":5}}`),
		[]byte(`{"suspects":[],"keys":[""],"options":null,"n":[-0.5e+10,0,1E3,true,false,null,{"a":{}}]}`),
		[]byte(`null`), []byte(` null `), []byte(`[]`), []byte(`"x"`), []byte(`{}`), []byte(``),
		[]byte(`{"x":` + deep(maxRequestDepth-1) + `}`),
		[]byte(`{"x":` + deep(maxRequestDepth) + `}`),
		[]byte(deep(maxRequestDepth + 1)),
	}
}

// FuzzDecodeServeRequest pins decodeServeRequest to encoding/json: it
// errs exactly when json.Unmarshal into a serveRequest errs, and
// otherwise decodes the same request.
func FuzzDecodeServeRequest(f *testing.F) {
	for _, seed := range requestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got serveRequest
		wantErr := json.Unmarshal(data, &want)
		gotErr := decodeServeRequest(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeServeRequest err = %v, json.Unmarshal err = %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got.Suspects, want.Suspects) {
			t.Errorf("suspects = %q, json.Unmarshal decodes %q", got.Suspects, want.Suspects)
		}
		if !reflect.DeepEqual(got.Keys, want.Keys) {
			t.Errorf("keys = %q, json.Unmarshal decodes %q", got.Keys, want.Keys)
		}
		if got.Stream != want.Stream || got.Options.Workers != want.Options.Workers ||
			got.Options.CheckEvery != want.Options.CheckEvery ||
			(got.Options.unread == nil) != (want.Options.unread == nil) {
			t.Errorf("stream %v, options %+v; json.Unmarshal decodes stream %v, options %+v",
				got.Stream, got.Options, want.Stream, want.Options)
		}
	})
}

// FuzzServeSubmit sends bodies to POST /jobs: each answers 2xx or 4xx,
// never 5xx or a panic, and a refused one leaves no job directory.
func FuzzServeSubmit(f *testing.F) {
	for _, seed := range requestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		root := t.TempDir()
		srv, err := newServer(serveConfig{root: root, maxActive: 1, maxJobs: 4,
			reqTimeout: time.Minute, noSync: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		srv.drain()
		switch code := rec.Code; {
		case code < 200 || code >= 500:
			t.Fatalf("POST /jobs answered %d: %s", code, rec.Body)
		case code >= 300:
			if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
				t.Errorf("refused with %d, the job root holds %d entries (err %v), want none", code, len(entries), err)
			}
		}
	})
}

// TestDecodeServeRequestAllocs: decoding a grade body allocates little
// more than the texts it returns, at most 1.1 times the body's length.
// json.Unmarshal allocates about 1.9 times.
func TestDecodeServeRequestAllocs(t *testing.T) {
	body := mustGradeBody(t)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var req serveRequest
		if err := decodeServeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; float64(per) > 1.1*float64(len(body)) {
		t.Errorf("decoding a %d-byte body allocated %d bytes, want at most 1.1x", len(body), per)
	}
}

// BenchmarkDecodeServeRequest decodes a grade body with encoding/json
// and with decodeServeRequest.
func BenchmarkDecodeServeRequest(b *testing.B) {
	body := mustGradeBody(b)
	for _, leg := range []struct {
		name   string
		decode func([]byte, *serveRequest) error
	}{
		{"encoding-json", func(data []byte, req *serveRequest) error { return json.Unmarshal(data, req) }},
		{"one-pass", decodeServeRequest},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req serveRequest
				if err := leg.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

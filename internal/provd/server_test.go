package provd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/trust"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestServerEndToEnd: a fault-injected runtime mirrors into the store;
// after a simulated restart the daemon serves the recovered log and its
// /audit verdicts agree with the in-memory middleware path.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}

	net := runtime.NewNet()
	defer net.Close()
	net.SetSink(st)
	net.SetFaults(&runtime.Faults{DropRate: 0.15, DupRate: 0.15, Seed: 11})
	a := net.Register("a")
	b := net.Register("b")

	var held []syntax.AnnotatedValue
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			vals, err := b.Recv(syntax.Fresh(syntax.Chan("m")), 100*time.Millisecond, pattern.AnyP())
			if err != nil {
				return
			}
			held = append(held, vals[0])
		}
	}()
	for i := 0; i < 25; i++ {
		if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := net.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("nothing delivered")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover from segment files and serve.
	st2, err := store.Open(dir, store.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts := httptest.NewServer(NewServer(st2, nil))
	defer ts.Close()

	var lr LogResponse
	if code := getJSON(t, ts, "/log", &lr); code != http.StatusOK {
		t.Fatalf("/log status %d", code)
	}
	if len(lr.Records) != net.LogLen() {
		t.Fatalf("daemon serves %d records, middleware logged %d", len(lr.Records), net.LogLen())
	}

	// Audit parity for every delivered value.
	for _, v := range held {
		var ar AuditResponse
		req := AuditRequest{Value: v.V.Name, Prov: eventDTOs(v.K)}
		if code := postJSON(t, ts, "/audit", req, &ar); code != http.StatusOK {
			t.Fatalf("/audit status %d", code)
		}
		memOK := net.AuditValue(v) == nil
		if ar.Correct != memOK {
			t.Fatalf("audit verdicts disagree for %s: daemon=%v mem=%v (%s)", v, ar.Correct, memOK, ar.Detail)
		}
		if !ar.Correct {
			t.Errorf("genuine value rejected: %s", ar.Detail)
		}
	}

	// A forged claim is rejected by both paths.
	var ar AuditResponse
	forged := AuditRequest{Value: "vX", Prov: []EventDTO{{Principal: "z", Dir: "!"}}}
	postJSON(t, ts, "/audit", forged, &ar)
	if ar.Correct {
		t.Error("daemon accepted a forged provenance claim")
	}
	if net.AuditValue(syntax.Annot(syntax.Chan("vX"), syntax.Seq(syntax.OutEvent("z", nil)))) == nil {
		t.Error("middleware accepted a forged provenance claim")
	}
}

// TestServerAppendQueryRedaction: /append ingests actions, shard queries
// filter via the indexes, and the disclosure policy redacts per observer
// at query time.
func TestServerAppendQueryRedaction(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	policy := trust.NewDisclosurePolicy().HideFrom("s", "c")
	ts := httptest.NewServer(NewServer(st, policy))
	defer ts.Close()

	actions := []ActionDTO{
		{Principal: "a", Kind: "snd", A: TermDTO{Name: "m"}, B: TermDTO{Name: "v"}},
		{Principal: "s", Kind: "rcv", A: TermDTO{Name: "m"}, B: TermDTO{Name: "v"}},
		{Principal: "s", Kind: "snd", A: TermDTO{Name: "n"}, B: TermDTO{Name: "v"}},
		{Principal: "s", Kind: "ift", A: TermDTO{Name: "v"}, B: TermDTO{Name: "v"}},
	}
	for i, a := range actions {
		var resp AppendResponse
		if code := postJSON(t, ts, "/append", a, &resp); code != http.StatusOK {
			t.Fatalf("/append status %d", code)
		}
		if resp.Seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, resp.Seq)
		}
	}

	// Index-backed filters.
	var lr LogResponse
	getJSON(t, ts, "/log/s?chan=m", &lr)
	if len(lr.Records) != 1 || lr.Records[0].Action.Kind != "rcv" {
		t.Fatalf("chan filter returned %+v", lr.Records)
	}
	getJSON(t, ts, "/log/s?kind=ift", &lr)
	if len(lr.Records) != 1 || lr.Records[0].Action.Kind != "ift" {
		t.Fatalf("kind filter returned %+v", lr.Records)
	}

	// The shard endpoint is keyed by the acting principal, so for a
	// hidden observer it is denied outright rather than served masked.
	resp, err := http.Get(ts.URL + "/log/s?observer=c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("hidden shard served to observer c: status %d", resp.StatusCode)
	}

	// Observer c must not see s's actions; observer b sees everything.
	getJSON(t, ts, "/log?observer=c", &lr)
	for _, r := range lr.Records {
		if r.Action.Principal == "s" {
			t.Fatalf("observer c saw a hidden action: %+v", r)
		}
	}
	if !strings.Contains(lr.Log, trust.RedactedPrincipal) {
		t.Fatal("redacted log lacks the opaque marker")
	}
	getJSON(t, ts, "/log?observer=b", &lr)
	sSeen := 0
	for _, r := range lr.Records {
		if r.Action.Principal == "s" {
			sSeen++
		}
	}
	if sSeen != 3 {
		t.Fatalf("observer b sees %d of s's actions, want 3", sSeen)
	}

	// Malformed requests are 400s, not 500s.
	var e map[string]string
	if code := postJSON(t, ts, "/append", ActionDTO{Principal: "a", Kind: "bogus"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d", code)
	}
	if code := postJSON(t, ts, "/audit", AuditRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty audit: status %d", code)
	}
}

// TestServerConcurrentBatchAppendRestartParity: the daemon ingests
// concurrent batched /append traffic (the remote-mirror fast path),
// then is "restarted" — store closed and recovered purely from segment
// files — and every audit verdict collected live must be reproduced
// identically by the replayed store.
func TestServerConcurrentBatchAppendRestartParity(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 512, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(st, nil))

	// Each worker posts batches that embed a relay chain
	// aW -snd-> m -rcv-> sW -snd-> n -rcv-> cW amid unrelated traffic, so
	// there are genuine cross-principal claims to audit afterwards.
	const workers, batchesPer = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			a, s, c := fmt.Sprintf("a%d", wkr), fmt.Sprintf("s%d", wkr), fmt.Sprintf("c%d", wkr)
			for b := 0; b < batchesPer; b++ {
				v := fmt.Sprintf("v%d_%d", wkr, b)
				batch := []ActionDTO{
					{Principal: a, Kind: "snd", A: TermDTO{Name: "m"}, B: TermDTO{Name: v}},
					{Principal: s, Kind: "rcv", A: TermDTO{Name: "m"}, B: TermDTO{Name: v}},
					{Principal: a, Kind: "ift", A: TermDTO{Name: v}, B: TermDTO{Name: v}},
					{Principal: s, Kind: "snd", A: TermDTO{Name: "n"}, B: TermDTO{Name: v}},
					{Principal: c, Kind: "rcv", A: TermDTO{Name: "n"}, B: TermDTO{Name: v}},
				}
				body, err := json.Marshal(batch)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var br BatchAppendResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch append status %d", resp.StatusCode)
					return
				}
				if br.Count != len(batch) {
					errs <- fmt.Errorf("batch ack count %d, want %d", br.Count, len(batch))
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Audit claims: one genuine relay chain per worker, plus forgeries
	// (a principal that never acted; a chain with the hops inverted).
	claims := make([]AuditRequest, 0, 2*workers)
	for wkr := 0; wkr < workers; wkr++ {
		a, s, c := fmt.Sprintf("a%d", wkr), fmt.Sprintf("s%d", wkr), fmt.Sprintf("c%d", wkr)
		claims = append(claims, AuditRequest{
			Value: fmt.Sprintf("v%d_0", wkr),
			Prov: []EventDTO{
				{Principal: c, Dir: "?"}, {Principal: s, Dir: "!"},
				{Principal: s, Dir: "?"}, {Principal: a, Dir: "!"},
			},
		})
		claims = append(claims, AuditRequest{
			Value: fmt.Sprintf("v%d_0", wkr),
			Prov:  []EventDTO{{Principal: c, Dir: "?"}, {Principal: "zz", Dir: "!"}},
		})
	}
	audit := func(ts *httptest.Server) []AuditResponse {
		out := make([]AuditResponse, len(claims))
		for i, req := range claims {
			if code := postJSON(t, ts, "/audit", req, &out[i]); code != http.StatusOK {
				t.Fatalf("/audit status %d", code)
			}
		}
		return out
	}
	live := audit(ts)
	liveLen := st.Len()
	for i, ar := range live {
		if genuine := i%2 == 0; ar.Correct != genuine {
			t.Fatalf("live verdict %d = %v, want %v (%s)", i, ar.Correct, genuine, ar.Detail)
		}
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover from disk, replay the same audits.
	st2, err := store.Open(dir, store.Options{SegmentBytes: 512, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Len(), liveLen; got != want {
		t.Fatalf("recovered %d records, live store had %d", got, want)
	}
	if got, want := st2.Len(), workers*batchesPer*5; got != want {
		t.Fatalf("recovered %d records, appended %d", got, want)
	}
	ts2 := httptest.NewServer(NewServer(st2, nil))
	defer ts2.Close()
	for i, replayed := range audit(ts2) {
		if replayed.Correct != live[i].Correct {
			t.Fatalf("audit verdict %d changed across restart: live=%v replayed=%v (%s)",
				i, live[i].Correct, replayed.Correct, replayed.Detail)
		}
	}
}

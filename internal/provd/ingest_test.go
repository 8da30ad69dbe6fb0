package provd

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/store"
)

// chainActs is one worker's relay chain aW -snd-> m -rcv-> sW -snd-> n
// -rcv-> cW amid noise — the same shape the HTTP batch e2e uses, so the
// two ingestion surfaces can be compared claim for claim.
func chainActs(wkr, b int) []logs.Action {
	a, s, c := fmt.Sprintf("a%d", wkr), fmt.Sprintf("s%d", wkr), fmt.Sprintf("c%d", wkr)
	v := fmt.Sprintf("v%d_%d", wkr, b)
	return []logs.Action{
		logs.SndAct(a, logs.NameT("m"), logs.NameT(v)),
		logs.RcvAct(s, logs.NameT("m"), logs.NameT(v)),
		logs.IftAct(a, logs.NameT(v), logs.NameT(v)),
		logs.SndAct(s, logs.NameT("n"), logs.NameT(v)),
		logs.RcvAct(c, logs.NameT("n"), logs.NameT(v)),
	}
}

func chainDTOs(wkr, b int) []ActionDTO {
	acts := chainActs(wkr, b)
	dtos := make([]ActionDTO, len(acts))
	for i, a := range acts {
		dtos[i] = actionDTO(a)
	}
	return dtos
}

// TestIngestEndToEndParity drives the same action stream through the
// HTTP/JSON batch path (into one store) and through concurrent
// pipelined binary clients (into another), with a mid-stream connection
// kill and a daemon restart on the binary side — and requires identical
// audit verdicts from the two stores.
func TestIngestEndToEndParity(t *testing.T) {
	const workers, batchesPer = 6, 10

	// HTTP/JSON reference store.
	stHTTP, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 512, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer stHTTP.Close()
	tsHTTP := httptest.NewServer(NewServer(stHTTP, nil))
	defer tsHTTP.Close()

	// Binary-ingest store, behind a drainable listener.
	binDir := t.TempDir()
	stBin, err := store.Open(binDir, store.Options{SegmentBytes: 512, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	ing := ingest.NewServer(stBin, ingest.Options{})
	addr, err := ing.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*workers+1)

	// Mid-stream kill: a connection that sends one good request, then
	// half a frame, then vanishes. The server must ack the good request
	// and shrug off the torn one without disturbing the real clients.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			errs <- err
			return
		}
		killer := provclient.New(addr, provclient.Options{Conns: 1})
		if _, err := killer.AppendBatch(chainActs(0, batchesPer)); err != nil { // extra batch, counted below
			errs <- fmt.Errorf("killer append: %w", err)
		}
		killer.Close()
		nc.Write([]byte{0x40, 0x01, 0x02, 0x03}) // claims 64 bytes, delivers 3
		nc.Close()
	}()

	for wkr := 0; wkr < workers; wkr++ {
		// HTTP worker: sequential JSON batches.
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				var br BatchAppendResponse
				if code := postJSON(t, tsHTTP, "/append", chainDTOs(wkr, b), &br); code != http.StatusOK {
					errs <- fmt.Errorf("http worker %d batch %d: status %d", wkr, b, code)
					return
				}
			}
		}(wkr)
		// Binary worker: its own pooled pipelined client.
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			c := provclient.New(addr, provclient.Options{Conns: 2})
			defer c.Close()
			for b := 0; b < batchesPer; b++ {
				if _, err := c.AppendBatch(chainActs(wkr, b)); err != nil {
					errs <- fmt.Errorf("binary worker %d batch %d: %w", wkr, b, err)
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

	wantBin := (workers*batchesPer + 1) * 5 // workers' chains + the killer's good batch
	if got := stBin.Len(); got != wantBin {
		t.Fatalf("binary store has %d records, want %d", got, wantBin)
	}

	// Restart the binary daemon: drain, close, recover from disk, serve
	// the recovered store over HTTP for the audit comparison — and keep
	// ingesting to prove the listener side survives too.
	ing.Close()
	if err := stBin.Close(); err != nil {
		t.Fatal(err)
	}
	stBin2, err := store.Open(binDir, store.Options{SegmentBytes: 512, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer stBin2.Close()
	if got := stBin2.Len(); got != wantBin {
		t.Fatalf("recovered binary store has %d records, want %d", got, wantBin)
	}
	ing2 := ingest.NewServer(stBin2, ingest.Options{})
	addr2, err := ing2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	post := provclient.New(addr2, provclient.Options{})
	if _, err := post.AppendBatch(chainActs(workers, 0)); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	post.Close()
	// Mirror the post-restart batch on the HTTP side to keep the streams equal.
	var br BatchAppendResponse
	if code := postJSON(t, tsHTTP, "/append", chainDTOs(workers, 0), &br); code != http.StatusOK {
		t.Fatalf("http post-restart batch: status %d", code)
	}
	var extra BatchAppendResponse
	if code := postJSON(t, tsHTTP, "/append", chainDTOs(0, batchesPer), &extra); code != http.StatusOK {
		t.Fatalf("http killer-mirror batch: status %d", code)
	}

	// Audit parity: genuine chains audit correct, forgeries incorrect,
	// and the two stores agree on every claim.
	tsBin := httptest.NewServer(NewServer(stBin2, nil))
	defer tsBin.Close()
	for wkr := 0; wkr <= workers; wkr++ {
		a, s, c := fmt.Sprintf("a%d", wkr), fmt.Sprintf("s%d", wkr), fmt.Sprintf("c%d", wkr)
		claims := []AuditRequest{
			{Value: fmt.Sprintf("v%d_0", wkr), Prov: []EventDTO{
				{Principal: c, Dir: "?"}, {Principal: s, Dir: "!"},
				{Principal: s, Dir: "?"}, {Principal: a, Dir: "!"},
			}},
			{Value: fmt.Sprintf("v%d_0", wkr), Prov: []EventDTO{
				{Principal: c, Dir: "?"}, {Principal: "zz", Dir: "!"},
			}},
		}
		for i, claim := range claims {
			var viaHTTP, viaBin AuditResponse
			if code := postJSON(t, tsHTTP, "/audit", claim, &viaHTTP); code != http.StatusOK {
				t.Fatalf("http audit status %d", code)
			}
			if code := postJSON(t, tsBin, "/audit", claim, &viaBin); code != http.StatusOK {
				t.Fatalf("bin audit status %d", code)
			}
			if genuine := i == 0; viaHTTP.Correct != genuine {
				t.Fatalf("worker %d claim %d: http verdict %v, want %v (%s)", wkr, i, viaHTTP.Correct, genuine, viaHTTP.Detail)
			}
			if viaHTTP.Correct != viaBin.Correct {
				t.Fatalf("worker %d claim %d: verdicts diverge http=%v bin=%v (%s)",
					wkr, i, viaHTTP.Correct, viaBin.Correct, viaBin.Detail)
			}
		}
	}
}

package repro_test

// Ingest-path benchmarks: the two remote append surfaces over the same
// store, measured at the request level. One BinaryBatch op appends
// ingestBatchSize records over the pipelined binary protocol; one
// HTTPAppend op appends a single record over HTTP/JSON — so the
// per-record cost ratio is (BinaryBatch ns/op ÷ ingestBatchSize) vs
// HTTPAppend ns/op. CI's benchmark gate watches these (with the store
// append/audit benchmarks) for regressions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/provd"
	"repro/internal/store"
)

const ingestBatchSize = 256

func benchAct(w, i int) logs.Action {
	return logs.SndAct(fmt.Sprintf("p%d", w), logs.NameT(fmt.Sprintf("m%d", i)), logs.NameT("v"))
}

func BenchmarkIngestBinaryBatch(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := ingest.NewServer(st, ingest.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := provclient.New(addr, provclient.Options{Conns: 4})
	defer c.Close()

	batch := make([]logs.Action, ingestBatchSize)
	for i := range batch {
		batch[i] = benchAct(0, i)
	}
	if _, err := c.AppendBatch(batch); err != nil { // warm the pool
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.AppendBatch(batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(ingestBatchSize), "records/op")
}

// BenchmarkProvclientAppendIdle is the latency floor of a single-action
// Append: one producer, one Append at a time, so every call finds the
// client idle and pays exactly one request round trip and one commit.
// Anything the batcher adds on top of a one-action AppendBatch — a
// linger, a hand-off — shows here as ns/op.
func BenchmarkProvclientAppendIdle(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := ingest.NewServer(st, ingest.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := provclient.New(addr, provclient.Options{Conns: 1})
	defer c.Close()
	if _, err := c.Append(benchAct(0, 0)); err != nil { // dial and handshake
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Append(benchAct(0, i%64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestHTTPAppend(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: provd.NewServer(st, nil)}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/append"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	body, err := json.Marshal(provd.ActionDTO{Principal: "p", Kind: "snd",
		A: provd.TermDTO{Name: "m"}, B: provd.TermDTO{Name: "v"}})
	if err != nil {
		b.Fatal(err)
	}
	post := func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var ack provd.AppendResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // warm the connection
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := post(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

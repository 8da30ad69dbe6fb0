package repro_test

// Ingest-path benchmarks: the two remote append surfaces over the same
// store, measured at the request level. One BinaryBatch op appends
// ingestBatchSize records over the pipelined binary protocol; one
// HTTPAppend op appends a single record over HTTP/JSON — so the
// per-record cost ratio is (BinaryBatch ns/op ÷ ingestBatchSize) vs
// HTTPAppend ns/op. ProvclientQueryAll and ProvdHTTPLogPage are the read
// side: one 256-record page over mutual TLS, binary and HTTP/JSON. CI's
// benchmark gate watches these (with the
// store append/audit benchmarks) for regressions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/provd"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/wire"
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

// BenchmarkProvclientQueryAll is one remote read: a 256-record page of
// the global log, fetched with QueryAll from a mutual-TLS node that
// enforces a read grant, one page at a time. accepts/op is the
// listener's accepted connections per page — what the page paid in TCP
// and TLS handshakes.
func BenchmarkProvclientQueryAll(b *testing.B) {
	const preload, page = 16 * ingestBatchSize, ingestBatchSize
	ca, err := testutil.NewTestCA()
	if err != nil {
		b.Fatal(err)
	}
	serverTLS, err := ca.ServerConfig("leader")
	if err != nil {
		b.Fatal(err)
	}
	clientTLS, err := ca.ClientConfig("reader")
	if err != nil {
		b.Fatal(err)
	}
	grants := auth.NewMap()
	if err := grants.Add(auth.Grant{Name: "reader", Roles: auth.RoleRead}, ""); err != nil {
		b.Fatal(err)
	}
	st := testutil.OpenStore(b, b.TempDir(), store.Options{})
	testutil.SeedStore(b, st, preload)
	srv := ingest.NewServer(st, ingest.Options{TLS: serverTLS, Auth: auth.NewGuard(grants)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := provclient.New(addr, provclient.Options{Conns: 1, TLSConfig: clientTLS})
	defer c.Close()
	read := func(i int) error {
		from := uint64(i%(preload/page)) * page
		recs, _, err := c.QueryAll(wire.QuerySpec{MinSeq: from, Limit: page})
		if err == nil && (len(recs) != page || recs[0].Seq != from) {
			err = fmt.Errorf("page at %d: %d records", from, len(recs))
		}
		return err
	}
	if err := read(0); err != nil { // warm the store's global cache
		b.Fatal(err)
	}
	before := srv.Stats().Accepted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := read(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Stats().Accepted-before)/float64(b.N), "accepts/op")
}

// BenchmarkProvdHTTPLogPage is the same read over HTTP/JSON: a
// 256-record page of the global log from a mutual-TLS provd that
// enforces a read grant, fetched by a client that decodes the one JSON
// value and closes the body without reading on to EOF — the usual Go
// client. conns/op is the server's new connections per page: what the
// page paid in TCP and TLS handshakes.
func BenchmarkProvdHTTPLogPage(b *testing.B) {
	const preload, page = 16 * ingestBatchSize, ingestBatchSize
	ca, err := testutil.NewTestCA()
	if err != nil {
		b.Fatal(err)
	}
	serverTLS, err := ca.ServerConfig("leader")
	if err != nil {
		b.Fatal(err)
	}
	clientTLS, err := ca.ClientConfig("reader")
	if err != nil {
		b.Fatal(err)
	}
	grants := auth.NewMap()
	if err := grants.Add(auth.Grant{Name: "reader", Roles: auth.RoleRead}, ""); err != nil {
		b.Fatal(err)
	}
	st := testutil.OpenStore(b, b.TempDir(), store.Options{})
	testutil.SeedStore(b, st, preload)
	app := provd.NewServer(st, nil)
	app.SetAuth(auth.NewGuard(grants))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var conns atomic.Int64
	hs := &http.Server{Handler: app, TLSConfig: serverTLS, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}}
	go hs.ServeTLS(ln, "", "")
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{TLSClientConfig: clientTLS}}
	defer client.CloseIdleConnections()
	base := "https://" + ln.Addr().String() + "/log?limit=" + strconv.Itoa(page) + "&from="
	read := func(i int) error {
		from := uint64(i%(preload/page)) * page
		resp, err := client.Get(base + strconv.FormatUint(from, 10))
		if err != nil {
			return err
		}
		var lr provd.LogResponse
		err = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != http.StatusOK || len(lr.Records) != page || lr.Records[0].Seq != from) {
			err = fmt.Errorf("page at %d: status %d, %d records", from, resp.StatusCode, len(lr.Records))
		}
		return err
	}
	if err := read(0); err != nil { // warm the store's global cache
		b.Fatal(err)
	}
	before := conns.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := read(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(conns.Load()-before)/float64(b.N), "conns/op")
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

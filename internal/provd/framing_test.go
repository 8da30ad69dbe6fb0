package provd

// Response framing: every body provd writes carries its Content-Length,
// so a client that decodes one JSON value and closes the body without
// reading on to EOF — the usual Go client — keeps its keep-alive
// connection. Unframed, a body past the server's 2 KB buffer goes out
// chunked, the client never reads the terminating chunk, and its
// transport drops the connection.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logs"
)

// route is one request of the framing suite.
type route struct {
	method, path string
	body         any
	code         int
	// out returns a fresh value to decode the body into; nil for
	// /metrics, which is text.
	out func() any
}

// framedRoutes preloads sf so that the log, census and audit bodies
// outgrow the server's 2 KB buffer — 1000 one-record principals (a
// census page of 16 KB from each of a fleet's two leaders) and a
// 300-record p1 shard on channel m — and returns one request per route.
func framedRoutes(t *testing.T, sf *surface) []route {
	t.Helper()
	for i := 0; i < 1000; i++ {
		ps := []string{fmt.Sprintf("q%03d", i)}
		if i < 300 {
			ps = append(ps, "p1")
		}
		for _, p := range ps {
			if _, err := sf.owner(p).Append(logs.SndAct(p, logs.NameT("m"), logs.NameT(fmt.Sprintf("v%d", i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The observer's view echoes all 100 events: a body past 2 KB, which
	// a fleet proxies from the leader owning p1.
	claim := AuditRequest{Value: "v0", Observer: "x"}
	for i := 0; i < 100; i++ {
		claim.Prov = append(claim.Prov, EventDTO{Principal: "p1", Dir: "!"})
	}
	return []route{
		{"GET", "/log?limit=256", nil, http.StatusOK, func() any { return new(LogResponse) }},
		{"GET", "/log/p1?chan=m&limit=256", nil, http.StatusOK, func() any { return new(LogResponse) }},
		{"GET", "/principals?limit=2000", nil, http.StatusOK, func() any { return new(PrincipalsResponse) }},
		{"POST", "/audit", claim, http.StatusOK, func() any { return new(AuditResponse) }},
		{"GET", "/healthz", nil, http.StatusOK, func() any { return new(map[string]any) }},
		{"GET", "/metrics", nil, http.StatusOK, nil},
		{"GET", "/log?cursor=garbage", nil, http.StatusBadRequest, func() any { return new(map[string]string) }},
	}
}

// request issues rt on c and hands the response to read; the body is
// closed once read returns, whatever read consumed of it.
func request(t *testing.T, c *http.Client, base string, rt route, read func(*http.Response)) {
	t.Helper()
	var rd io.Reader
	if rt.body != nil {
		b, err := json.Marshal(rt.body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(rt.method, base+rt.path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", rt.method, rt.path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != rt.code {
		t.Fatalf("%s %s: status %d, want %d", rt.method, rt.path, resp.StatusCode, rt.code)
	}
	read(resp)
}

// TestHTTPConnectionReuse: a decode-then-close client making 20 rounds
// of requests over every route opens exactly one connection, counted
// by the server's ConnState hook and printed as
// provd_http_connections_total. Behind a coordinator, the census pages
// it fetches from each leader the same way cost each leader one
// connection too. At the parent commit bodies past 2 KB went out
// chunked and every such request dialled again.
func TestHTTPConnectionReuse(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		routes := framedRoutes(t, sf)
		c := sf.ts.Client()
		for i := 0; i < 20; i++ {
			for _, rt := range routes {
				request(t, c, sf.ts.URL, rt, func(resp *http.Response) {
					if rt.out == nil {
						io.Copy(io.Discard, resp.Body) // a scraper reads the text to its end
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(rt.out()); err != nil {
						t.Fatalf("%s %s: %v", rt.method, rt.path, err)
					}
				})
			}
		}
		if n := sf.app.conns.Load(); n != 1 {
			t.Fatalf("%d requests opened %d connections, want 1", 20*len(routes), n)
		}
		var metrics []byte
		request(t, c, sf.ts.URL, route{"GET", "/metrics", nil, http.StatusOK, nil}, func(resp *http.Response) {
			metrics, _ = io.ReadAll(resp.Body)
		})
		if !strings.Contains(string(metrics), "provd_http_connections_total 1\n") {
			t.Fatalf("metrics lack the connection count:\n%s", metrics)
		}
		if sf.m == nil {
			return
		}
		for i, mb := range sf.members {
			if n := mb.app.conns.Load(); n != 1 {
				t.Fatalf("leader %d: the coordinator's census and audits opened %d connections, want 1", i, n)
			}
		}
	})
}

// TestHTTPResponsesFramed: every route's response carries a
// Content-Length equal to its body's length, and a JSON body is exactly
// what json.Encoder writes for the value it decodes to.
func TestHTTPResponsesFramed(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		for _, rt := range framedRoutes(t, sf) {
			request(t, sf.ts.Client(), sf.ts.URL, rt, func(resp *http.Response) {
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.ContentLength != int64(len(body)) {
					t.Fatalf("%s %s: Content-Length %d, body %d bytes", rt.method, rt.path, resp.ContentLength, len(body))
				}
				if rt.out == nil {
					return
				}
				v := rt.out()
				if err := json.Unmarshal(body, v); err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(v)
				if !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("%s %s: body is not json.Encoder's output:\n%s\nwant\n%s", rt.method, rt.path, body, want.Bytes())
				}
			})
		}
	})
}

// TestWriteJSON: writeJSON writes json.Encoder's bytes under their
// length, whatever a pooled buffer held before, and a value the encoder
// refuses is a framed 500 naming the encoder's error — at the parent
// commit it was a 200 with an empty body.
func TestWriteJSON(t *testing.T) {
	check := func(v any, code int) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != code {
			t.Fatalf("%.40v: status %d, want %d", v, rec.Code, code)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%.40v: Content-Length %s for a %d-byte body", v, cl, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%.40v: Content-Type %q", v, ct)
		}
		return rec
	}
	for _, v := range []any{
		strings.Repeat("x", maxPooledReply+1), // too large to go back to the pool
		map[string]any{"log": strings.Repeat("<", 3000), "n": 1},
		AppendResponse{Seq: 7},
	} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(v)
		if rec := check(v, http.StatusOK); !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%.40v: body %.80q, want %.80q", v, rec.Body.String(), want.String())
		}
	}
	rec := check(math.NaN(), http.StatusInternalServerError)
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "NaN") {
		t.Fatalf("unencodable value: body %q (%v)", rec.Body.String(), err)
	}
}

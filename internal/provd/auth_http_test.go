package provd

// HTTP-surface enforcement: the same grants the binary listener
// enforces (internal/ingest/auth_test.go is the raw-wire twin), bound
// here to client certificates; the bearer-token suite runs over both
// backends in surface_test.go.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/auth"
	"repro/internal/store"
	"repro/internal/testutil"
)

// do issues one request with an optional bearer token, decoding the
// JSON response into out (when non-nil) and returning the status.
func do(t *testing.T, ts *httptest.Server, method, path, token string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPAuthClientCert: over mutual TLS the client certificate is
// the identity — a mapped CN gets its grant, an unmapped one is 401
// even though its certificate verified.
func TestHTTPAuthClientCert(t *testing.T) {
	ca, err := testutil.NewTestCA()
	if err != nil {
		t.Fatal(err)
	}
	serverConf, err := ca.ServerConfig("server")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, ""); err != nil {
		t.Fatal(err)
	}
	app := NewServer(st2, nil)
	app.SetAuth(auth.NewGuard(m))
	tls2 := httptest.NewUnstartedServer(app)
	tls2.TLS = serverConf
	tls2.StartTLS()
	t.Cleanup(tls2.Close)

	client := func(identity string) *http.Client {
		conf, err := ca.ClientConfig(identity)
		if err != nil {
			t.Fatal(err)
		}
		conf = conf.Clone()
		conf.ServerName = "127.0.0.1"
		return &http.Client{Transport: &http.Transport{TLSClientConfig: conf}}
	}

	post := func(c *http.Client, principal string) int {
		b, _ := json.Marshal(map[string]any{"principal": principal, "kind": "snd",
			"a": map[string]string{"name": "m"}, "b": map[string]string{"name": "v"}})
		resp, err := c.Post(tls2.URL+"/append", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(client("writer"), "alice"); code != http.StatusOK {
		t.Fatalf("cert-identified append: %d", code)
	}
	if code := post(client("writer"), "bob"); code != http.StatusForbidden {
		t.Fatalf("cert-identified impersonation: %d", code)
	}
	if code := post(client("stranger"), "alice"); code != http.StatusUnauthorized {
		t.Fatalf("unmapped certificate: %d", code)
	}
	if n := len(st2.ScanShardTail("alice", store.Filter{}, 0, -1)); n != 1 {
		t.Fatalf("alice has %d records, want 1", n)
	}
}

package auth

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestParseMapTokenLength: a token the binary listener's auth frame can
// carry loads; one byte longer fails the whole map, naming its line —
// it would authenticate over HTTP but never on the binary surface.
func TestParseMapTokenLength(t *testing.T) {
	fits := strings.Repeat("t", wire.MaxTokenLen)
	m, err := ParseMap(strings.NewReader("producer roles=append token=" + fits + "\n"))
	if err != nil {
		t.Fatalf("%d-byte token: %v", len(fits), err)
	}
	if m.ByToken(fits) == nil {
		t.Fatalf("%d-byte token does not resolve", len(fits))
	}

	long := fits + "t"
	_, err = ParseMap(strings.NewReader("# fleet identities\nproducer roles=append token=" + long + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "257 bytes") {
		t.Fatalf("%d-byte token: got %v, want a line-2 length error", len(long), err)
	}
	if err := NewMap().Add(Grant{Name: "producer"}, long); err == nil {
		t.Fatalf("Add accepted a %d-byte token", len(long))
	}
}

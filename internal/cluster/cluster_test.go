package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParsePeersList(t *testing.T) {
	peers, err := ParsePeers("n2=http://10.0.0.2:8377/, n1=http://10.0.0.1:8377 ,n3=http://10.0.0.3:8377")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 {
		t.Fatalf("want 3 peers, got %v", peers)
	}
	// Normalised: sorted by name, trailing slash trimmed.
	if peers[0].Name != "n1" || peers[1].Name != "n2" || peers[2].Name != "n3" {
		t.Fatalf("peers not sorted by name: %v", peers)
	}
	if peers[1].URL != "http://10.0.0.2:8377" {
		t.Fatalf("trailing slash not trimmed: %q", peers[1].URL)
	}
}

func TestParsePeersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	if err := os.WriteFile(path, []byte(
		`[{"name":"b","url":"http://b:1"},{"name":"a","url":"http://a:1"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	peers, err := ParsePeers("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].Name != "a" {
		t.Fatalf("unexpected peers: %v", peers)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, s := range []string{"", "justaname", "@/does/not/exist.json"} {
		if _, err := ParsePeers(s); err == nil {
			t.Errorf("ParsePeers(%q): want error", s)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := []Peer{{Name: "n1", URL: "http://a:1"}, {Name: "n2", URL: "http://b:1"}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"missing self", Config{Self: "nx", Peers: base}, "does not contain self"},
		{"empty self", Config{Peers: base}, "needs a self name"},
		{"dup name", Config{Self: "n1", Peers: append([]Peer{{Name: "n1", URL: "http://c:1"}}, base...)}, "duplicate"},
		{"slash in name", Config{Self: "a/b", Peers: []Peer{{Name: "a/b", URL: "http://a:1"}}}, "must not contain"},
		{"empty url", Config{Self: "n1", Peers: []Peer{{Name: "n1"}}}, "both name and url"},
	}
	for _, c := range cases {
		err := c.cfg.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	ok := Config{Self: "n1", Peers: base}
	if err := ok.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Self: "n1", Peers: []Peer{
		{Name: "n1", URL: "u1"}, {Name: "n2", URL: "u2"},
	}, Replication: 5}.withDefaults()
	if cfg.Replication != 2 {
		t.Errorf("replication not clamped to cluster size: %d", cfg.Replication)
	}
	if cfg.FailThreshold != 2 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Clock == nil || cfg.Logf == nil {
		t.Error("nil dependencies not defaulted")
	}
}

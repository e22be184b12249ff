package fault

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestDeterministicAcrossRuns(t *testing.T) {
	pattern := func() []bool {
		in := New(42).Enable("a", 0.3).Enable("b", 0.7)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.Fire("a"), in.Fire("b"))
		}
		return out
	}
	p1, p2 := pattern(), pattern()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
}

func TestSiteStreamsIndependent(t *testing.T) {
	// Interleaving calls to another site must not perturb a site's own
	// decision sequence.
	solo := New(7).Enable("x", 0.5)
	var ref []bool
	for i := 0; i < 100; i++ {
		ref = append(ref, solo.Fire("x"))
	}
	mixed := New(7).Enable("x", 0.5).Enable("noise", 0.9)
	for i := 0; i < 100; i++ {
		mixed.Fire("noise")
		mixed.Fire("noise")
		if got := mixed.Fire("x"); got != ref[i] {
			t.Fatalf("call %d: interleaved noise changed site decision", i)
		}
	}
}

func TestEnableAt(t *testing.T) {
	in := New(1).EnableAt("s", 3, 5, 8)
	var fired []int64
	for i := 1; i <= 8; i++ {
		if err := in.FireErr("s"); err != nil {
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("FireErr returned %T, want *Fault", err)
			}
			fired = append(fired, f.Call)
		}
	}
	// The last firing call is the eighth, so the site counted every call.
	if !slices.Equal(fired, []int64{3, 5, 8}) || in.Fired("s") != 3 {
		t.Fatalf("fired at %v (%d), want [3 5 8]", fired, in.Fired("s"))
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Fire("any") || in.FireErr("any") != nil {
		t.Fatal("nil injector fired")
	}
	if in.Param("any", 2.5) != 2.5 {
		t.Fatal("nil injector Param default broken")
	}
	r := in.Reader("io", strings.NewReader("hello"))
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "hello" {
		t.Fatalf("nil injector Reader altered stream: %q %v", b, err)
	}
}

func TestReaderError(t *testing.T) {
	in := New(3).EnableAt("io/err", 2)
	r := in.Reader("io", bytes.NewReader(bytes.Repeat([]byte{7}, 64)))
	buf := make([]byte, 16)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("first read failed early: %v", err)
	}
	_, err := r.Read(buf)
	var f *Fault
	if !errors.As(err, &f) || f.Site != "io/err" || f.Call != 2 {
		t.Fatalf("second read: got %v, want the injected fault at io/err call 2", err)
	}
}

func TestReaderTruncate(t *testing.T) {
	in := New(3).EnableAt("io/truncate", 2)
	r := in.Reader("io", iotest.OneByteReader(bytes.NewReader(bytes.Repeat([]byte{7}, 64))))
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("truncated stream must end with clean EOF, got %v", err)
	}
	if len(got) >= 64 {
		t.Fatalf("stream not truncated: read %d bytes", len(got))
	}
	// ReadFull on a fresh truncated stream reports ErrUnexpectedEOF.
	in2 := New(3).EnableAt("io/truncate", 1)
	r2 := in2.Reader("io", bytes.NewReader(bytes.Repeat([]byte{7}, 64)))
	if _, err := io.ReadFull(r2, make([]byte, 8)); err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Fatalf("ReadFull on truncated stream: %v", err)
	}
}

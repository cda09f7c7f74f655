package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// seeds reads every testdata file matching pattern. The files are real
// edfd and edfproxy output: a replica's /metrics page, and admission
// feeds read off /v1/events directly and through the proxy.
func seeds(f *testing.F, pattern string) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed files match %s: %v", pattern, err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzParseExposition feeds arbitrary bytes to the parser edfproxy runs
// on every replica's /metrics page: it may reject them, never panic.
func FuzzParseExposition(f *testing.F) {
	for _, b := range seeds(f, "*.txt") {
		f.Add(b)
	}
	for _, s := range []string{
		"# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.7\nh_count 2\n",
		"x{a=\"q\\\"uote\\\\ and\\nnewline\",b=\"\"} -Inf 1700000000000\r\n",
		"# HELP x free text\n# TYPE x\n",
		"x{a=\"unterminated} 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		_, _, _ = ParseExpositionTyped(bytes.NewReader(page))
	})
}

// FuzzSSEScanner feeds arbitrary bytes to the scanner edfproxy runs on
// every replica's admission feed, which must end in io.EOF rather than
// a panic, and checks that an Event written by WriteSSEEvent scans back
// equal.
func FuzzSSEScanner(f *testing.F) {
	streams := append(seeds(f, "*.sse"),
		[]byte(": keep-alive\r\n\r\ndata: {\"seq\":1,\ndata: \"type\":\"open\"}\n\nid: 2\nretry: 10\n\ndata:{}\n"))
	for i, b := range streams {
		f.Add(b, uint64(i), int64(1792235522715707437), EventAdmit, "45cc3654f931c70aff863c6e55c4e2d4", 0.25, true)
	}
	f.Fuzz(func(t *testing.T, stream []byte, seq uint64, at int64, typ, session string, util float64, admitted bool) {
		sc := NewSSEScanner(bytes.NewReader(stream))
		for {
			if _, err := sc.NextEvent(); err == io.EOF {
				break
			}
		}

		if !utf8.ValidString(typ) || !utf8.ValidString(session) {
			return // encoding/json replaces invalid UTF-8, by design
		}
		want := Event{
			Seq: seq, TimeUnixNS: at, Type: typ, Session: session,
			Trace: session, Admitted: admitted, Utilization: util,
		}
		var buf bytes.Buffer
		if err := WriteSSEEvent(&buf, want); err != nil {
			return // NaN and the infinities have no JSON form
		}
		sc = NewSSEScanner(&buf)
		got, err := sc.NextEvent()
		if err != nil {
			t.Fatalf("scanning %q: %v", buf.String(), err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if _, err := sc.NextEvent(); err != io.EOF {
			t.Fatalf("after the event: %v, want io.EOF", err)
		}
	})
}

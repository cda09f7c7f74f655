package jsonwire

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"
)

func TestFieldMatchesLikeEncodingJSON(t *testing.T) {
	names := []string{"tasks", "self_suspension", "wcet"}
	for key, want := range map[string]int{
		"tasks": 0, "TASKS": 0, "TaSkS": 0,
		"ta\u017fks":      0, // long s folds to s
		"tas\u212as":      0, // Kelvin sign folds to k
		"SELF_SUSPENSION": 1, "wcet": 2, "WCET": 2,
		"task": -1, "tasks ": -1, "täsks": -1, "self-suspension": -1, "": -1,
	} {
		if got := Field([]byte(key), names); got != want {
			t.Errorf("Field(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestInt64MatchesParseInt(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-7", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "18446744073709551616",
		"99999999999999999999", "1.0", "1e3", "-1E-3", "10.5",
	} {
		want, err := strconv.ParseInt(lit, 10, 64)
		var got int64
		d := NewDecoder([]byte(lit))
		ok := d.Int64(&got)
		if d.End() != nil {
			t.Fatalf("%s: syntax error %v", lit, d.Err())
		}
		if ok != (err == nil) || ok && got != want {
			t.Errorf("Int64(%s) = %d, %v; ParseInt = %d, %v", lit, got, ok, want, err)
		}
	}
}

// TestStringMatchesUnmarshal decodes random string literals — escapes,
// surrogate halves, invalid UTF-8 and control bytes mixed in — with
// String and with encoding/json, and demands the same verdict and text.
func TestStringMatchesUnmarshal(t *testing.T) {
	parts := []string{"a", "é", "\\n", "\\\"", "\\\\", "\\/", "\\u00e9", "\\ud83d", "\\ude00", "\\uDBFF",
		"\\u12", "\\x", "\xff", "\xed\xa0\x80", "\x01", "\t", "\"", "\U0001F600"}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		lit := `"`
		for range rng.Intn(6) {
			lit += parts[rng.Intn(len(parts))]
		}
		lit += `"`
		var want string
		wantErr := json.Unmarshal([]byte(lit), &want)
		var got string
		d := NewDecoder([]byte(lit))
		d.String(&got)
		err := d.End()
		if (err == nil) != (wantErr == nil) || err == nil && got != want {
			t.Fatalf("%q: got %q, %v; encoding/json %q, %v", lit, got, err, want, wantErr)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ace"
	"ace/internal/gnutella"
	"ace/internal/obs"
)

// fillDistinct sets every field of the struct v, embedded structs aside,
// to a nonzero value no other field holds, starting from seed.
func fillDistinct(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), seed+i
		if v.Type().Field(i).Anonymous {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.375)
		case reflect.String:
			f.SetString(strconv.Itoa(n))
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.ValueOf(float64(n)))
			f.Set(m)
		default:
			t.Fatalf("%s.%s: no fill for kind %s", v.Type().Name(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// requireFieldsCarried decodes one stream payload and checks that every
// field of want that the stream carries, embedded structs aside, came
// back bit-identical under its json key.
func requireFieldsCarried(t *testing.T, payload json.RawMessage, want reflect.Value) {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(payload, &keys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.NumField(); i++ {
		sf := want.Type().Field(i)
		if sf.Anonymous {
			continue
		}
		tag, ok := sf.Tag.Lookup("json")
		if !ok {
			t.Errorf("%s.%s has no json tag", want.Type().Name(), sf.Name)
			continue
		}
		key, _, _ := strings.Cut(tag, ",")
		if key == "-" {
			continue
		}
		raw, ok := keys[key]
		if !ok {
			t.Errorf("%s.%s: key %q missing from %s", want.Type().Name(), sf.Name, key, payload)
			continue
		}
		got := reflect.New(sf.Type)
		if err := json.Unmarshal(raw, got.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), want.Field(i).Interface()) {
			t.Errorf("%s.%s: key %q carried %s, want %v", want.Type().Name(), sf.Name, key, raw, want.Field(i))
		}
	}
}

// TestMetricsLinesCarryEveryField pins the one declaration of each round
// and query metric: every StepReport and QueryResult field not tagged
// json:"-" must reach the -metrics stream through acesim's round line
// and gnutella's query record, and decode back bit-identically under its
// key, as must the fields the line and the record add. A field added
// without a tag, or whose key another field of the line shadows, fails
// here.
func TestMetricsLinesCarryEveryField(t *testing.T) {
	var rep ace.StepReport
	fillDistinct(t, reflect.ValueOf(&rep).Elem(), 1)
	var res gnutella.QueryResult
	fillDistinct(t, reflect.ValueOf(&res).Elem(), 100)
	line := roundLine{StepReport: rep}
	fillDistinct(t, reflect.ValueOf(&line).Elem(), 1000)
	rec := gnutella.NewQueryRecord("carry", 2000, 2001, 2002, res)

	var buf bytes.Buffer
	s := obs.NewStream(&buf)
	s.EmitRound(line)
	s.EmitQuery(rec)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != "round" || recs[1].Type != "query" {
		t.Fatalf("stream holds %+v, want one round and one query record", recs)
	}
	requireFieldsCarried(t, recs[0].Round, reflect.ValueOf(rep))
	requireFieldsCarried(t, recs[0].Round, reflect.ValueOf(line))
	requireFieldsCarried(t, recs[1].Query, reflect.ValueOf(res))
	requireFieldsCarried(t, recs[1].Query, reflect.ValueOf(rec))
	if rec.ResponseMS != res.FirstResponse {
		t.Errorf("record response_ms = %v, want FirstResponse %v", rec.ResponseMS, res.FirstResponse)
	}
}

// TestUnansweredStepPrintsNA: a step whose sampled queries all went
// unanswered has no mean response time, so its table row reads n/a in
// the response and Δresp columns instead of a perfect 0.0 ms and 100%;
// an unanswered blind baseline reads n/a too, and so does every Δresp
// measured against it. The child's -metrics stream says which samples
// were answered.
func TestUnansweredStepPrintsNA(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ loss, queries string }{
		{"0.8", "20"}, // the blind baseline is answered, the steps are not
		{"0.9", "3"},  // nothing is answered
	} {
		path := filepath.Join(t.TempDir(), "metrics.jsonl")
		args := []string{
			"-peers", "300", "-phys", "1200", "-steps", "4", "-churnpeers", "6",
			"-loss", tc.loss, "-queries", tc.queries, "-metrics", path,
		}
		child := exec.Command(exe)
		child.Env = append(os.Environ(), "ACESIM_CHILD="+strings.Join(args, "\x1f"))
		child.Stderr = os.Stderr
		out, err := child.Output()
		if err != nil {
			t.Fatalf("acesim %v: %v", args, err)
		}

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		answered := map[string]bool{}
		for _, r := range recs {
			if r.Type != "query" {
				continue
			}
			var q gnutella.QueryRecord
			if err := json.Unmarshal(r.Query, &q); err != nil {
				t.Fatal(err)
			}
			answered[q.Label] = answered[q.Label] || q.ResponseMS >= 0
		}

		cell := func(ok bool) string {
			if ok {
				return "a number"
			}
			return "n/a"
		}
		unanswered := 0
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "blind flooding baseline:") {
				if got := strings.Contains(line, "response n/a"); got == answered["blind"] {
					t.Errorf("loss %s: baseline response should read %s: %q", tc.loss, cell(answered["blind"]), line)
				}
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 5 {
				continue
			}
			k, err := strconv.Atoi(fields[0])
			if err != nil {
				continue
			}
			ok := answered[fmt.Sprintf("step%d", k)]
			if !ok {
				unanswered++
			}
			if (fields[3] == "n/a") == ok {
				t.Errorf("loss %s: step %d response should read %s: %q", tc.loss, k, cell(ok), line)
			}
			if want := ok && answered["blind"]; (fields[4] == "n/a") == want {
				t.Errorf("loss %s: step %d Δresp should read %s: %q", tc.loss, k, cell(want), line)
			}
		}
		if unanswered == 0 {
			t.Fatalf("loss %s: every step had an answered query; the run checks nothing", tc.loss)
		}
	}
}

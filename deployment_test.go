package impir

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestFlatDeployment(t *testing.T) {
	d := FlatDeployment("a:1", "b:1")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != 1 || len(d.Shards[0].Parties) != 2 {
		t.Fatalf("unexpected shape: %+v", d)
	}
	if d.NumRecords() != 0 {
		t.Fatalf("flat deployment has handshake geometry, got %d records", d.NumRecords())
	}
	if err := FlatDeployment("a:1").Validate(); err == nil {
		t.Fatal("single-party deployment validated")
	}
}

func TestReplicatedDeployment(t *testing.T) {
	d := ReplicatedDeployment([]string{"a:1", "a:2"}, []string{"b:1"})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.Shards[0].cohorts(); len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 1 {
		t.Fatalf("cohorts = %v", got)
	}
}

func TestDeploymentJSONRoundTrip(t *testing.T) {
	d := Deployment{
		RecordSize: 32,
		Shards: []DeploymentShard{
			{FirstRecord: 0, NumRecords: 100, Parties: []Party{
				{Replicas: []string{"a:1", "a:2"}}, {Replicas: []string{"b:1"}},
			}},
			{FirstRecord: 100, NumRecords: 28, Parties: []Party{
				{Replicas: []string{"c:1"}}, {Replicas: []string{"d:1"}}, {Replicas: []string{"e:1"}},
			}},
		},
	}
	data, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDeployment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", d, back)
	}
}

func TestDeploymentValidation(t *testing.T) {
	base := func() Deployment {
		return Deployment{RecordSize: 32, Shards: []DeploymentShard{
			{FirstRecord: 0, NumRecords: 10, Parties: []Party{
				{Replicas: []string{"a:1"}}, {Replicas: []string{"b:1"}},
			}},
			{FirstRecord: 10, NumRecords: 10, Parties: []Party{
				{Replicas: []string{"c:1"}}, {Replicas: []string{"d:1"}},
			}},
		}}
	}
	cases := map[string]func(*Deployment){
		"no shards":             func(d *Deployment) { d.Shards = nil },
		"gap":                   func(d *Deployment) { d.Shards[1].FirstRecord = 11 },
		"overlap":               func(d *Deployment) { d.Shards[1].FirstRecord = 9 },
		"empty shard":           func(d *Deployment) { d.Shards[1].NumRecords = 0 },
		"one party":             func(d *Deployment) { d.Shards[0].Parties = d.Shards[0].Parties[:1] },
		"party with no replica": func(d *Deployment) { d.Shards[0].Parties[0].Replicas = nil },
		"empty address":         func(d *Deployment) { d.Shards[0].Parties[0].Replicas = []string{""} },
		"no record size":        func(d *Deployment) { d.RecordSize = 0 },
		"negative record size":  func(d *Deployment) { d.RecordSize = -1 },
		"long address": func(d *Deployment) {
			d.Shards[0].Parties[0].Replicas = []string{strings.Repeat("x", 300)}
		},
		"too many replicas": func(d *Deployment) {
			reps := make([]string, maxReplicasPerParty+1)
			for i := range reps {
				reps[i] = "r:1"
			}
			d.Shards[0].Parties[0].Replicas = reps
		},
		"not from zero":    func(d *Deployment) { d.Shards[0].FirstRecord = 1 },
		"unordered shards": func(d *Deployment) { d.Shards[0], d.Shards[1] = d.Shards[1], d.Shards[0] },
		"too many shards": func(d *Deployment) {
			parties := d.Shards[0].Parties
			d.Shards = make([]DeploymentShard, maxDeploymentShards+1)
			for i := range d.Shards {
				d.Shards[i] = DeploymentShard{FirstRecord: uint64(i), NumRecords: 1, Parties: parties}
			}
		},
		"too many parties": func(d *Deployment) {
			d.Shards[0].Parties = make([]Party, maxPartiesPerShard+1)
			for i := range d.Shards[0].Parties {
				d.Shards[0].Parties[i] = Party{Replicas: []string{"p:1"}}
			}
		},
	}
	for name, mutate := range cases {
		d := base()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// A shard-level "replicas" list names no parties.
	if _, err := ParseDeployment([]byte(`{"record_size":32,"shards":[
		{"first_record":0,"num_records":4,"replicas":["a:1","b:1"]}]}`)); err == nil {
		t.Error("shard-level \"replicas\" list accepted")
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base deployment invalid: %v", err)
	}
}

func TestDeploymentSingleShardGeometryOptional(t *testing.T) {
	// Flat deployments may omit geometry entirely…
	if err := FlatDeployment("a:1", "b:1").Validate(); err != nil {
		t.Fatal(err)
	}
	// …or declare it in full…
	d := FlatDeployment("a:1", "b:1")
	d.RecordSize = 32
	d.Shards[0].NumRecords = 64
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// …but a record count without a record size is half a geometry.
	d.RecordSize = 0
	if err := d.Validate(); err == nil {
		t.Fatal("num_records without record_size validated")
	}
}

func TestDeploymentWithKeyword(t *testing.T) {
	pairs := []KVPair{{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("k2"), Value: []byte("v2")}}
	_, m, err := BuildKVDB(pairs, KVTableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := FlatDeployment("a:1", "b:1").WithKeyword(m)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDeployment(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Keyword == nil || !reflect.DeepEqual(*back.Keyword, m) {
		t.Fatalf("keyword manifest did not round-trip: %+v", back.Keyword)
	}
	bad := d
	kw := *bad.Keyword
	kw.NumBuckets = 0
	bad.Keyword = &kw
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid keyword manifest validated")
	}
}

// TestParseDeploymentRefusesUnknownFields: a misspelt section or field
// is an error, not a manifest without it. Dropping a misspelt
// "batch_code" opens a store that reads coded rows as records.
func TestParseDeploymentRefusesUnknownFields(t *testing.T) {
	code, err := DeriveBatchCode(100, 32, 4, 2, 1, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, kvm, err := BuildKVDB([]KVPair{{Key: []byte("k1"), Value: []byte("v1")}}, KVTableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := FlatDeployment("a:1", "b:1").WithBatchCode(code).JSON()
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := FlatDeployment("a:1", "b:1").WithKeyword(kvm).JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range [][]byte{coded, keyed} {
		if _, err := ParseDeployment(good); err != nil {
			t.Fatalf("valid deployment refused: %v", err)
		}
	}
	codeJSON, err := code.JSON()
	if err != nil {
		t.Fatal(err)
	}
	kvJSON, err := kvm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"batchcode section":  bytes.Replace(coded, []byte(`"batch_code"`), []byte(`"batchcode"`), 1),
		"keword section":     bytes.Replace(keyed, []byte(`"keyword"`), []byte(`"keword"`), 1),
		"shard field":        bytes.Replace(coded, []byte(`"parties"`), []byte(`"partys"`), 1),
		"code field":         bytes.Replace(coded, []byte(`"max_batch"`), []byte(`"maxbatch"`), 1),
		"keyword field":      bytes.Replace(keyed, []byte(`"hash_seeds"`), []byte(`"hash_seed"`), 1),
		"trailing manifest":  append(append([]byte{}, coded...), coded...),
		"trailing character": append(append([]byte{}, coded...), '}'),
	} {
		if bytes.Equal(data, coded) || bytes.Equal(data, keyed) {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := ParseDeployment(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseCodeManifest(bytes.Replace(codeJSON, []byte(`"seeds"`), []byte(`"seed"`), 1)); err == nil {
		t.Error("code manifest with a misspelt field accepted")
	}
	if _, err := ParseKVManifest(bytes.Replace(kvJSON, []byte(`"key_size"`), []byte(`"keysize"`), 1)); err == nil {
		t.Error("keyword manifest with a misspelt field accepted")
	}
}

// FuzzParseDeployment asserts the manifest codec's fixed-point
// property: any accepted input re-encodes to a canonical form that
// parses back to the same deployment, and validation caps hold.
func FuzzParseDeployment(f *testing.F) {
	flat := FlatDeployment("a:1", "b:1")
	flatJSON, _ := flat.JSON()
	f.Add(flatJSON)
	repl, _ := ReplicatedDeployment([]string{"a:1", "a:2"}, []string{"b:1"}).JSON()
	f.Add(repl)
	sharded, _ := Deployment{RecordSize: 32, Shards: []DeploymentShard{
		{FirstRecord: 0, NumRecords: 4, Parties: []Party{{Replicas: []string{"a:1"}}, {Replicas: []string{"b:1"}}}},
		{FirstRecord: 4, NumRecords: 4, Parties: []Party{{Replicas: []string{"c:1"}}, {Replicas: []string{"d:1"}}}},
	}}.JSON()
	f.Add(sharded)
	// A shard-level "replicas" list names no parties: refused.
	f.Add([]byte(`{"record_size":32,"shards":[{"first_record":0,"num_records":4,"replicas":["a:1","b:1"]}]}`))
	// A misspelt "batch_code" section: refused, not dropped.
	f.Add([]byte(`{"shards":[{"parties":[{"replicas":["a:1"]},{"replicas":["b:1"]}]}],"batchcode":{"num_records":100}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDeployment(data)
		if err != nil {
			return
		}
		if len(d.Shards) > maxDeploymentShards {
			t.Fatalf("shard cap not enforced: %d", len(d.Shards))
		}
		for _, s := range d.Shards {
			if len(s.Parties) < 2 || len(s.Parties) > maxPartiesPerShard {
				t.Fatalf("party bounds not enforced: %d", len(s.Parties))
			}
			for _, p := range s.Parties {
				if len(p.Replicas) < 1 || len(p.Replicas) > maxReplicasPerParty {
					t.Fatalf("replica bounds not enforced: %d", len(p.Replicas))
				}
			}
		}
		out, err := d.JSON()
		if err != nil {
			t.Fatalf("accepted deployment does not re-encode: %v", err)
		}
		back, err := ParseDeployment(out)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("not a fixed point:\n%+v\n%+v", d, back)
		}
	})
}

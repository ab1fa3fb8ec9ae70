package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the decoding and
// normalization POST /v1/jobs gives a spec: no
// input panics, and a spec normalize accepts is a fixed point of it, so
// the spec a job status reports, submitted again, asks for the same job.
func FuzzJobSpec(f *testing.F) {
	s := New(Config{Workers: 1})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	f.Add([]byte(`{"workload":"cc","controller":"hybrid"}`))
	f.Add([]byte(`{"workload":"mesh","controller":"fixed","m":4,"parallel":-1,"size":200,"max_duration":"2s"}`))
	f.Add([]byte(`{"workload":"cc","controller":"hybrid","mode":"async","tenant":"gold","priority":9}`))
	f.Add([]byte(`{"workload":"spin","controller":"recurrence-b","max_rounds":5,"fault":{"panic_rate":0.1,"transient_attempts":2}}`))
	f.Add([]byte(`{"jobs":[{"workload":"stable","controller":"hybrid","mode":"colored"},{"workload":"des","controller":"model"}]}`))
	f.Add([]byte(`{"workload":"cc","controller":"hybrid","rho":0.99,"degree":-1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"workload":"cc","unknown":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if decodeBody(httptest.NewRecorder(), r, maxSpecBytes, &spec) != nil {
			return
		}
		once, err := s.normalize(spec)
		if err != nil {
			return
		}
		twice, err := s.normalize(once)
		if err != nil {
			t.Fatalf("normalize refused its own output %+v: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("normalize is not idempotent:\n%+v\n%+v", once, twice)
		}
	})
}

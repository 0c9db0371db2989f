package server

import (
	"encoding/json"
	"testing"
)

// TestWireJobExplicitZeroTimes checks that an explicit notice_time or
// est_arrival of 0 is the instant t=0, not "absent": an advance notice sent
// at the start of a run must reach the engine. Only absent fields default
// to the submit time.
func TestWireJobExplicitZeroTimes(t *testing.T) {
	cases := []struct {
		body                   string
		noticeTime, estArrival int64
	}{
		{`{"id":1,"class":"on-demand","submit":600,"size":4,"work":60,"notice":"accurate","notice_time":0,"est_arrival":0}`, 0, 0},
		{`{"id":2,"class":"on-demand","submit":600,"size":4,"work":60,"notice":"early","notice_time":0,"est_arrival":900}`, 0, 900},
		{`{"id":3,"class":"on-demand","submit":600,"size":4,"work":60,"notice":"late","notice_time":120}`, 120, 600},
		{`{"id":4,"class":"rigid","submit":600,"size":4,"work":60}`, 600, 600},
	}
	for _, c := range cases {
		var wj wireJob
		if err := json.Unmarshal([]byte(c.body), &wj); err != nil {
			t.Fatal(err)
		}
		r, err := wj.record()
		if err != nil {
			t.Fatal(err)
		}
		if r.NoticeTime != c.noticeTime || r.EstArrival != c.estArrival {
			t.Errorf("job %d: notice_time %d, est_arrival %d; want %d, %d",
				r.ID, r.NoticeTime, r.EstArrival, c.noticeTime, c.estArrival)
		}
	}
}

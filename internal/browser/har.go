package browser

import (
	"encoding/json"
	"time"

	"github.com/gamma-suite/gamma/internal/core"
)

// HAR is the HTTP Archive 1.2 document Gamma can persist for each page
// load. Only the fields the analysis pipeline consumes are materialized,
// but the structure follows the spec so standard HAR viewers open it.
type HAR struct {
	Log HARLog `json:"log"`
}

// HARLog is the top-level log object.
type HARLog struct {
	Version string     `json:"version"`
	Creator HARCreator `json:"creator"`
	Pages   []HARPage  `json:"pages"`
	Entries []HAREntry `json:"entries"`
}

// HARCreator identifies the producing tool.
type HARCreator struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// HARPage describes one loaded page.
type HARPage struct {
	StartedDateTime string         `json:"startedDateTime"`
	ID              string         `json:"id"`
	Title           string         `json:"title"`
	PageTimings     HARPageTimings `json:"pageTimings"`
}

// HARPageTimings carries page-level milestones.
type HARPageTimings struct {
	OnLoad float64 `json:"onLoad"`
}

// HAREntry is one request/response pair.
type HAREntry struct {
	Pageref         string      `json:"pageref"`
	StartedDateTime string      `json:"startedDateTime"`
	Time            float64     `json:"time"`
	Request         HARRequest  `json:"request"`
	Response        HARResponse `json:"response"`
}

// HARRequest is the request half of an entry.
type HARRequest struct {
	Method string `json:"method"`
	URL    string `json:"url"`
}

// HARResponse is the response half of an entry.
type HARResponse struct {
	Status     int    `json:"status"`
	StatusText string `json:"statusText"`
}

// ToHAR converts a recorded page load into a HAR document. start anchors
// the timeline (the suite passes the study clock, keeping output
// deterministic).
func ToHAR(p core.PageRecord, start time.Time) HAR {
	h := HAR{Log: HARLog{
		Version: "1.2",
		Creator: HARCreator{Name: "gamma", Version: "1.0"},
		Pages: []HARPage{{
			StartedDateTime: start.UTC().Format(time.RFC3339),
			ID:              "page_1",
			Title:           p.URL,
			PageTimings:     HARPageTimings{OnLoad: p.DurationMs},
		}},
	}}
	for i, r := range p.Requests {
		status, text := 200, "OK"
		if r.Blocked {
			status, text = 0, "blocked by client"
		}
		h.Log.Entries = append(h.Log.Entries, HAREntry{
			Pageref:         "page_1",
			StartedDateTime: start.UTC().Add(time.Duration(i) * time.Millisecond).Format(time.RFC3339),
			Time:            1,
			Request:         HARRequest{Method: "GET", URL: r.URL},
			Response:        HARResponse{Status: status, StatusText: text},
		})
	}
	return h
}

// JSON renders the HAR document.
func (h HAR) JSON() ([]byte, error) { return json.MarshalIndent(h, "", "  ") }

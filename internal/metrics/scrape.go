package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// SampleValue returns the named sample's value from a snapshot, ok ==
// false when the name is not present. Shared by the campaign's
// metrics-consistency oracle and the monitor's watchdogs.
func SampleValue(samples []Sample, name string) (int64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// scrapeClient is Scrape's HTTP client: monitors talk to loopback or LAN
// daemons, so a short timeout beats hanging a scrape sweep on one dead
// target.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// Scrape fetches base's /metrics?format=json endpoint and decodes the
// sample array — the monitor's side of the contract served by
// internal/debugsrv. base is a host:port or http:// URL prefix (the path
// is appended).
func Scrape(base string) ([]Sample, error) {
	url := base
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	resp, err := scrapeClient.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("metrics: scrape %s: status %d", base, resp.StatusCode)
	}
	var samples []Sample
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, fmt.Errorf("metrics: scrape %s: %w", base, err)
	}
	return samples, nil
}

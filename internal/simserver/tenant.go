package simserver

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tenant is one API-key principal from the keyfile: a stable name (used in
// views, metrics labels and the dashboard), the bearer secret, a fair-share
// weight for the deficit-round-robin scheduler, and its admission limits.
// The rate limit is a classic token bucket (Rate sustained submissions per
// second, Burst capacity); MaxActive caps jobs+sweeps that are queued or
// running at once. Zero means unlimited for both.
type Tenant struct {
	Name      string
	Key       string
	Weight    int
	Rate      float64
	Burst     float64
	MaxActive int

	mu     sync.Mutex
	tokens float64
	last   time.Time
	active int
}

// tenantAdmitOK is the zero admission verdict: allowed.
type admitVerdict struct {
	ok         bool
	code       string        // codeRateLimited or codeQuotaExceeded when !ok
	retryAfter time.Duration // hint for the Retry-After header, >= 1s
}

// admitOne charges one submission against the tenant's limits at wall time
// now. Concurrency is checked before the bucket so a quota rejection never
// burns a token. On success the active count is incremented; the caller
// must pair it with release() when the work leaves the system.
func (t *Tenant) admitOne(now time.Time) admitVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.MaxActive > 0 && t.active >= t.MaxActive {
		return admitVerdict{code: codeQuotaExceeded, retryAfter: time.Second}
	}
	if t.Rate > 0 {
		if t.last.IsZero() {
			t.tokens = t.burstCap()
		} else {
			t.tokens += now.Sub(t.last).Seconds() * t.Rate
			if max := t.burstCap(); t.tokens > max {
				t.tokens = max
			}
		}
		t.last = now
		if t.tokens < 1 {
			wait := time.Duration((1 - t.tokens) / t.Rate * float64(time.Second))
			if wait < time.Second {
				wait = time.Second
			}
			return admitVerdict{code: codeRateLimited, retryAfter: wait}
		}
		t.tokens--
	}
	t.active++
	return admitVerdict{ok: true}
}

// release returns one admission unit (job or sweep reaching a terminal
// state) to the tenant's concurrency quota; a nil tenant (open access) has
// none to return.
func (t *Tenant) release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.active > 0 {
		t.active--
	}
	t.mu.Unlock()
}

// activeCount reports jobs+sweeps currently charged against the quota.
func (t *Tenant) activeCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// burstCap is the bucket capacity: Burst if set, else max(Rate, 1) so a
// rate-limited tenant can always submit at least one request immediately.
func (t *Tenant) burstCap() float64 {
	if t.Burst > 0 {
		return t.Burst
	}
	if t.Rate > 1 {
		return t.Rate
	}
	return 1
}

// weight returns the scheduler weight, defaulting to 1.
func (t *Tenant) weight() int {
	if t == nil || t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// TenantSet is the parsed keyfile: the fixed, bounded set of principals the
// server recognizes. A nil or empty set means open access (single-tenant
// mode, backward compatible with pre-auth deployments). The set is
// immutable after load, so lookups are lock-free.
type TenantSet struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	names  []string
}

// Enabled reports whether authentication is required.
func (ts *TenantSet) Enabled() bool { return ts != nil && len(ts.byKey) > 0 }

// Lookup resolves a bearer key to its tenant, or nil.
func (ts *TenantSet) Lookup(key string) *Tenant {
	if ts == nil {
		return nil
	}
	return ts.byKey[key]
}

// ByName resolves a tenant name, or nil.
func (ts *TenantSet) ByName(name string) *Tenant {
	if ts == nil {
		return nil
	}
	return ts.byName[name]
}

// Names returns tenant names in sorted order — the bounded label set for
// metrics and the dashboard.
func (ts *TenantSet) Names() []string {
	if ts == nil {
		return nil
	}
	return ts.names
}

// LoadTenants reads a keyfile from disk. See ParseTenants for the format.
func LoadTenants(path string) (*TenantSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ts, err := ParseTenants(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

// ParseTenants parses the keyfile format: one tenant per line,
//
//	<name> <key> [weight=N] [rate=R] [burst=B] [max_active=M]
//
// Blank lines and #-comments are ignored. Names and keys must be unique;
// names are restricted to [a-zA-Z0-9_-] so they are safe as metric labels
// and in URLs.
func ParseTenants(r io.Reader) (*TenantSet, error) {
	ts := &TenantSet{
		byKey:  make(map[string]*Tenant),
		byName: make(map[string]*Tenant),
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<name> <key> [k=v...]\", got %q", lineNo, line)
		}
		t := &Tenant{Name: fields[0], Key: fields[1], Weight: 1}
		if !validTenantName(t.Name) {
			return nil, fmt.Errorf("line %d: invalid tenant name %q (want [a-zA-Z0-9_-]+)", lineNo, t.Name)
		}
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed option %q (want k=v)", lineNo, kv)
			}
			var err error
			switch k {
			case "weight":
				t.Weight, err = strconv.Atoi(v)
				if err == nil && t.Weight < 1 {
					err = fmt.Errorf("must be >= 1")
				}
			case "rate":
				t.Rate, err = strconv.ParseFloat(v, 64)
				if err == nil && t.Rate < 0 {
					err = fmt.Errorf("must be >= 0")
				}
			case "burst":
				t.Burst, err = strconv.ParseFloat(v, 64)
				if err == nil && t.Burst < 0 {
					err = fmt.Errorf("must be >= 0")
				}
			case "max_active":
				t.MaxActive, err = strconv.Atoi(v)
				if err == nil && t.MaxActive < 0 {
					err = fmt.Errorf("must be >= 0")
				}
			default:
				err = fmt.Errorf("unknown option")
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: option %q: %v", lineNo, kv, err)
			}
		}
		if _, dup := ts.byName[t.Name]; dup {
			return nil, fmt.Errorf("line %d: duplicate tenant name %q", lineNo, t.Name)
		}
		if _, dup := ts.byKey[t.Key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key for tenant %q", lineNo, t.Name)
		}
		ts.byName[t.Name] = t
		ts.byKey[t.Key] = t
		ts.names = append(ts.names, t.Name)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(ts.names)
	return ts, nil
}

func validTenantName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		ok := c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

package cache

import "repro/internal/money"

// AmortShare returns the amortized share of an entry's build cost that one
// more query should pay (Eq. 7: f_S = Build_S(S)/n). The share never
// exceeds what remains to be amortized, so fully amortized structures are
// free to use. The quotient is memoized on the entry, so AmortShare
// writes to it: call it from the goroutine that owns the cache.
func AmortShare(e *Entry, n int64) money.Amount {
	if e == nil || n <= 0 || !e.AmortRemaining.IsPositive() {
		return 0
	}
	if e.shareN != n || e.shareOf != e.BuildPrice {
		e.share, e.shareOf, e.shareN = e.BuildPrice.DivInt(n), e.BuildPrice, n
	}
	return money.MinAmount(e.share, e.AmortRemaining)
}

// MaintDue returns maintenance rent accrued against the entry and not yet
// recovered from any user: the stored arrears plus rent since
// MaintPaidUntil, priced by the caller-supplied rate function.
func MaintDue(e *Entry, priceSince func(*Entry) money.Amount) money.Amount {
	if e == nil {
		return 0
	}
	return e.UnpaidMaint.Add(priceSince(e))
}

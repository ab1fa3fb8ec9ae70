// Parallel-do example: the Galois-style ForEach/Loop API — write an
// amorphous data-parallel loop in a few lines and let the runtime
// handle speculation, conflicts, retries, and processor allocation.
//
// The workload: concurrent account transfers. Each transfer locks its
// two accounts; transfers sharing an account conflict and retry. The
// invariant (total balance conserved) is checked at the end.
//
//	go run ./examples/paralleldo
package main

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

type transfer struct {
	from, to int
	amount   int
}

func main() {
	r := rng.New(123)
	const accounts = 64
	const transfers = 5000

	balance := make([]int, accounts)
	items := make([]*speculation.Item, accounts)
	for i := range balance {
		balance[i] = 1000
		items[i] = speculation.NewItem(int64(i))
	}
	total := accounts * 1000

	work := make([]transfer, transfers)
	for i := range work {
		a, b := r.Intn(accounts), r.Intn(accounts)
		for b == a {
			b = r.Intn(accounts)
		}
		work[i] = transfer{from: a, to: b, amount: 1 + r.Intn(50)}
	}

	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.ForEach(work, func(t transfer, ctx *speculation.Ctx) error {
		// Lock both accounts (the conflict declaration)...
		if err := ctx.AcquireAll(items[t.from], items[t.to]); err != nil {
			return err
		}
		// ...then mutate at commit time, which only a winner reaches.
		ctx.OnCommit(func() {
			if balance[t.from] >= t.amount {
				balance[t.from] -= t.amount
				balance[t.to] += t.amount
			}
		})
		return nil
	}, ctrl, 1<<30)

	fmt.Printf("transfers: %d committed, %d retried (ratio %.2f) in %d rounds\n",
		res.UsefulWork, res.WastedWork,
		float64(res.WastedWork)/float64(res.ProcRounds), res.Rounds)
	fmt.Printf("efficiency: %.2f  (useful work per processor-round)\n", res.Efficiency())

	check := 0
	for _, b := range balance {
		check += b
	}
	if check != total {
		fmt.Printf("INVARIANT BROKEN: total %d, want %d\n", check, total)
		return
	}
	fmt.Printf("balance conserved: %d across %d accounts ✓\n", check, accounts)
}

package speculation_test

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/speculation"
)

// Custom speculative tasks run on the executor under Algorithm 1;
// conflicting tasks (here: all contending for one item) serialize via
// abort and retry, and commit actions run once per committed task.
func ExampleRunAdaptive() {
	e := speculation.NewExecutor(nil)
	defer e.Close()
	account := speculation.NewItem(0)
	balance := 0
	for i := 0; i < 10; i++ {
		e.Add(speculation.TaskFunc(func(ctx *speculation.Ctx) error {
			if err := ctx.Acquire(account); err != nil {
				return err
			}
			ctx.OnCommit(func() { balance += 10 })
			return nil
		}))
	}
	speculation.RunAdaptive(e, control.NewHybrid(control.DefaultHybridConfig(0.25)), 10000)
	fmt.Println("balance:", balance, "committed:", e.TotalCommitted())
	// Output:
	// balance: 100 committed: 10
}

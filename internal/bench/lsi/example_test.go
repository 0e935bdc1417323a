package lsi_test

import (
	"fmt"

	"mmprofile/internal/bench/lsi"
	"mmprofile/internal/vsm"
)

func unit(m map[string]float64) vsm.Vector { return vsm.FromMap(m).Normalized() }

// Example fits a 2-dimensional LSI space on two topic groups and shows the
// latent-semantic effect: terms that never co-occur directly ("cat" and
// "dog") still project close together because they share contexts.
func Example() {
	docs := []vsm.Vector{
		unit(map[string]float64{"cat": 1, "pet": 0.8}),
		unit(map[string]float64{"dog": 1, "pet": 0.8}),
		unit(map[string]float64{"stock": 1, "market": 0.8}),
		unit(map[string]float64{"bond": 1, "market": 0.8}),
	}
	model, err := lsi.Fit(docs, 2, 1)
	if err != nil {
		panic(err)
	}
	catDog := lsi.CosineDense(
		model.Project(unit(map[string]float64{"cat": 1})),
		model.Project(unit(map[string]float64{"dog": 1})))
	catStock := lsi.CosineDense(
		model.Project(unit(map[string]float64{"cat": 1})),
		model.Project(unit(map[string]float64{"stock": 1})))
	fmt.Printf("keyword-space sim(cat,dog) = 0.00\n")
	fmt.Printf("latent-space sim(cat,dog) > sim(cat,stock): %v\n", catDog > catStock+0.3)
	// Output:
	// keyword-space sim(cat,dog) = 0.00
	// latent-space sim(cat,dog) > sim(cat,stock): true
}

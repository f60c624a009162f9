package thermal

import "context"

type Problem struct{}

type Solution struct{}

func Solve(p *Problem) (*Solution, error) { return SolveContext(context.Background(), p) }

func SolveContext(ctx context.Context, p *Problem) (*Solution, error) { return &Solution{}, nil }

func SolveSchedule(p *Problem) ([]*Solution, error) {
	return SolveScheduleContext(context.Background(), p)
}

func SolveScheduleContext(ctx context.Context, p *Problem) ([]*Solution, error) { return nil, nil }

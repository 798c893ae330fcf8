package ml

// SGD is stochastic gradient descent with classical momentum, the
// optimizer of the paper's benchmark (momentum 0.9, initial LR 1e-3,
// StepLR schedule).
type SGD struct {
	LR       float64
	Momentum float64
	vel      []float32
}

// NewSGD returns an optimizer with the given hyper-parameters.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step applies one update: v = µ·v + g; p -= lr·v.
func (o *SGD) Step(params, grads []float32) {
	if o.vel == nil {
		o.vel = make([]float32, len(params))
	}
	if len(params) != len(grads) || len(params) != len(o.vel) {
		panic("ml: SGD buffer length mismatch")
	}
	mu := float32(o.Momentum)
	lr := float32(o.LR)
	for i, g := range grads {
		o.vel[i] = float32(mu*o.vel[i]) + g
		params[i] -= float32(lr * o.vel[i])
	}
}

// StepLR decays the learning rate by Gamma every StepSize epochs, like
// torch.optim.lr_scheduler.StepLR.
type StepLR struct {
	Opt      *SGD
	StepSize int
	Gamma    float64
	epoch    int
}

// NewStepLR wraps opt with a step decay schedule.
func NewStepLR(opt *SGD, stepSize int, gamma float64) *StepLR {
	return &StepLR{Opt: opt, StepSize: stepSize, Gamma: gamma}
}

// EpochEnd advances the schedule by one epoch.
func (s *StepLR) EpochEnd() {
	s.epoch++
	if s.StepSize > 0 && s.epoch%s.StepSize == 0 {
		s.Opt.LR *= s.Gamma
	}
}

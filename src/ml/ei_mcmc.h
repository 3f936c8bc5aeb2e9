#ifndef LOCAT_ML_EI_MCMC_H_
#define LOCAT_ML_EI_MCMC_H_

#include <chrono>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/gp.h"
#include "ml/slice_sampler.h"

namespace locat::ml {

/// Acquisition rules supported by the marginalized surrogate. LOCAT uses
/// EI (with MCMC marginalization); PI and GP-UCB are provided for the
/// Section 2.2 comparison (bench/ablation_acquisition).
enum class AcquisitionKind { kExpectedImprovement, kProbabilityOfImprovement, kUcb };

/// Expected Improvement with MCMC hyperparameter marginalization
/// (Snoek et al. 2012), the acquisition function LOCAT uses (Section 3.4).
///
/// Instead of point-optimizing the GP hyperparameters, `Fit` slice-samples
/// them from their posterior (log marginal likelihood + weak log-normal
/// priors) and keeps one fitted GP per sample. The acquisition value of a
/// candidate is the EI for minimization averaged over those GPs, which
/// integrates out hyperparameter uncertainty and removes the need for any
/// external hyperparameter tuning.
///
/// `Refit` is the BO-loop entry point: once the model holds posterior
/// samples, the next refit continues from them (as Spearmint carries its
/// hyperparameter samples from one BO iteration to the next) with a few
/// short chains in parallel instead of re-burning-in one long chain.
class EiMcmc {
 public:
  struct Options {
    /// Number of posterior hyperparameter samples (fitted GPs).
    int num_hyper_samples = 8;
    /// Slice-sampler burn-in sweeps before the first sample.
    int burn_in = 16;
    /// Sweeps between retained samples.
    int thin = 2;
    /// Prior means for log lengthscale / log signal var / log noise var.
    double lengthscale_log_mean = -1.2;  // ~0.30 for [0,1]-normalized inputs
    double signal_log_mean = 0.0;
    double noise_log_mean = -4.6;  // ~0.01
    /// Shared prior standard deviation in log space.
    double prior_log_std = 1.0;
    /// Which acquisition AcquisitionValue computes.
    AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;
    /// Exploration weight for the UCB rule.
    double ucb_beta = 2.0;
    /// When true (the default), Fit evaluates the MCMC density through a
    /// GpKernelCache (pair distances precomputed once, factorization of
    /// each retained sample reused for its ensemble member) and fits
    /// ensemble members on the shared thread pool. When false, Fit runs
    /// the straightforward sequential path (full kernel rebuild per
    /// density evaluation, full refit per ensemble member) — kept as the
    /// benchmark baseline. Both paths draw the same random numbers and
    /// sample the same posterior.
    bool fast_path = true;

    Options() {}
  };

  /// Telemetry of the most recent Fit(): how much MCMC work the refit
  /// cost and how the slice sampler behaved. Collected unconditionally
  /// (a handful of integer increments and two clock reads against seconds
  /// of linear algebra) so observability wiring cannot perturb the fit.
  struct FitStats {
    int ensemble_size = 0;
    /// Host wall-clock seconds the whole Fit() call took.
    double wall_seconds = 0.0;
    /// True when every posterior sample failed to produce a usable GP and
    /// the default-hyperparameter fallback was used.
    bool used_fallback = false;
    /// True when the fit continued the previous fit's samples (a warm
    /// Refit) rather than starting from the default hyperparameters.
    bool warm = false;
    /// Slice-sampling chains the fit ran: 1 for a cold fit.
    int chains = 0;
    /// Sampler counters summed over the chains in chain order.
    SliceSampler::Stats sampler;
  };

  /// Chains a warm Refit runs. A constant, not the pool size, so the
  /// samples drawn are the same for any thread count.
  static constexpr int kWarmChains = 4;
  /// Burn-in sweeps of each warm chain: its start is already a posterior
  /// sample for the previous fit's data, in a BO loop the same data less
  /// the newest observation.
  static constexpr int kWarmBurnIn = 2;

  explicit EiMcmc(Options options = Options()) : options_(options) {}

  /// Fits the hyperparameter-marginalized model to (x, y) from scratch:
  /// one chain from the default hyperparameters with the full burn-in.
  /// `x` is n x d with n >= 2. Deterministic given `rng`'s state.
  Status Fit(const math::Matrix& x, const math::Vector& y, Rng* rng);

  /// Refits to (x, y), warm when the model holds retained samples of
  /// dimension x.cols(): kWarmChains chains run concurrently on the shared
  /// thread pool; chain c starts from retained sample
  /// ns-1-floor(c*ns/chains), burns in kWarmBurnIn sweeps and draws its
  /// share of num_hyper_samples (the first chains take the remainder).
  /// Each chain has its own kernel cache and its own Rng, forked from one
  /// NextUint64() draw of `rng` — the only draw a warm refit takes from
  /// it. Samples and members are assembled in chain order, so the result
  /// is bit-identical for any thread count. Without such samples this is
  /// exactly Fit.
  Status Refit(const math::Matrix& x, const math::Vector& y, Rng* rng);

  /// Extends a fitted model by one observation in O(n^2) per ensemble
  /// member (rank-1 bordered Cholesky append; hyperparameters stay frozen
  /// at the last Fit's posterior samples, no RNG consumed). Members whose
  /// factor cannot be extended even through the jitter fallback are
  /// dropped in order — deterministic for any thread count. When every
  /// member fails, the pre-append model is kept intact and an error is
  /// returned so the caller can fall back to a full refit.
  Status AppendObservation(const math::Vector& x, double y);

  /// Average Expected Improvement (for minimization) of a candidate over
  /// the posterior GP ensemble.
  double AcquisitionValue(const math::Vector& x) const;

  /// Acquisition values for all rows of `xs` at once. Each ensemble
  /// member runs one batched prediction (concurrently on the shared
  /// thread pool); the per-candidate average then accumulates members in
  /// fixed index order, so the result is bit-identical for any thread
  /// count.
  math::Vector AcquisitionValueBatch(const math::Matrix& xs) const;

  /// Ensemble-averaged predictive mean and (law-of-total-variance)
  /// variance.
  GaussianProcess::Prediction PredictAveraged(const math::Vector& x) const;

  /// Batched PredictAveraged for all rows of `xs`; same determinism
  /// contract as AcquisitionValueBatch.
  GaussianProcess::BatchPrediction PredictAveragedBatch(
      const math::Matrix& xs) const;

  /// Lowest observed target so far — the incumbent EI is computed against.
  double best_observed() const { return best_observed_; }

  /// Relative EI used by LOCAT's stop condition: EI / |best observed|
  /// (stop once this drops below 0.10 after >= 10 iterations).
  double RelativeEi(const math::Vector& x) const;

  bool fitted() const { return !ensemble_.empty(); }
  const std::vector<GaussianProcess>& ensemble() const { return ensemble_; }

  /// Stats of the most recent Fit() (zeroed before any fit).
  const FitStats& last_fit_stats() const { return last_fit_stats_; }

 private:
  /// One slice-sampling chain's output: its retained states, one member
  /// slot per state (empty where the GP could not be fitted) and its
  /// sampler counters.
  struct Chain {
    std::vector<math::Vector> samples;
    std::vector<std::optional<GaussianProcess>> members;
    SliceSampler::Stats stats;
  };

  double LogPrior(const GpHyperparams& hp) const;

  /// Runs one chain on (x, y) from `initial`: `burn_in` sweeps, then
  /// `n_samples` retained states `thin` sweeps apart, then fits their
  /// members. Reads only its arguments and options_, so chains on
  /// distinct Rngs may run concurrently.
  Chain RunChain(const math::Matrix& x, const math::Vector& y,
                 const math::Vector& initial, int n_samples, int burn_in,
                 Rng* rng) const;

  /// Installs `chains` (in order) as the fitted model and records stats.
  Status Install(const math::Matrix& x, const math::Vector& y,
                 std::vector<Chain> chains, bool warm,
                 std::chrono::steady_clock::time_point wall_start);

  Options options_;
  /// Retained hyperparameter samples (flattened) of the last fit, in
  /// chain order; the starts of the next warm Refit.
  std::vector<math::Vector> samples_;
  std::vector<GaussianProcess> ensemble_;
  double best_observed_ = 0.0;
  FitStats last_fit_stats_;
};

}  // namespace locat::ml

#endif  // LOCAT_ML_EI_MCMC_H_

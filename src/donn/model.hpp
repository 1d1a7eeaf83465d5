// DonnModel — the full diffractive optical neural network (paper §III-A,
// Eq. 2): source -> [free space -> phase mask] x N -> free space -> detector.
//
// Parameters are the per-layer phase masks; optional sparsity masks freeze
// pixels at zero (§III-C). Forward/backward are hand-derived (DESIGN.md §4)
// and validated against finite differences in tests. One layer is
//   out = P(in) .* w,   w = exp(i*phi)   (P = free-space propagation)
// and its adjoint, with g(x) = dL/dRe(x) + i dL/dIm(x), is
//   dL/dphi = Re(i * w * conj(conj(P(in)) .* g(out))),
//   g(in)   = P*(conj(w) .* g(out)).
//
// One per-sample path
// -------------------
// Every entry point — propagate_through, detector_sums, predict,
// infer_batch, detector_sums_batch and forward_backward — runs one private
// stack runner on a DonnModel::Workspace, multiplying by precomputed
// modulation tables w = exp(i*phi) (modulation_frames()).
// propagate_through, detector_sums and the row-major forward_backward
// build the tables and a workspace per call; predict and hot loops
// (infer_batch per chunk, the trainer per batch and slot, evaluate_accuracy
// per call and chunk) take them from the caller and reuse them, so
// steady-state propagation allocates no field and evaluates no cos/sin.
// Since every caller runs the same arithmetic, predictions, detector sums
// and gradients are bitwise identical however they are reached
// (tests/donn_test.cpp and tests/serve_test.cpp assert this).
//
// The runner has two entry points. It starts either from an input field,
// which it propagates to the first mask itself, or from a FirstHops frame:
// that first hop P(input) depends on the grid and the PropagatorOptions
// only, never on a phase mask, so callers that push the same inputs through
// many models of one geometry compute it once (first_hops()) — the
// Monte-Carlo evaluator for every realization of every variant, the robust
// trainer for its K realization blocks. The runner reads a FirstHops frame
// in place (its first modulation writes out of place), and from there on
// both entry points run the same modulate, propagate and readout code, so
// the results are bitwise identical either way.
//
// Frames end to end. The runner keeps the field, the per-layer cache of
// propagated fields, the backward gradient, the modulation tables and the
// phase gradients in the row-lane layout of fft::Frame (fft2d.hpp: split
// re/im planes, element (r, c) at [((r / 4) * n + c) * 4 + r % 4]), and
// propagates with Propagator::forward_frame / adjoint_frame, whose passes
// run the AVX2 lane kernels when the CPU has them (never FMA; see
// fft_plan.hpp). With every operand in one layout, the modulation and the
// per-pixel backward loop are plain loops over plane offsets, which the
// compiler vectorizes; they spell std::complex's arithmetic out part by
// part — (ac - bd, ad + bc) products, |f|^2 as re*re + im*im — so every
// element is bitwise what the row-major path computed. The training
// forward propagates each layer's input in workspace.propagated and
// modulates it out of place into the next one, so nothing is copied for
// the backward. The detector-plane gradient 2 f dL/dI is formed from the
// region list — 2.0 * f * 0.0 outside the regions and 2.0 * f * (0.0 + g_k)
// on region k, the factors ReadoutStrategy::scatter's plane would hold —
// without an n x n scatter plane; scatter stays as the detector tests'
// adjoint reference. Idle lanes of a partial last lane group hold 0 in the
// tables, so they stay 0 in every field; their gradient entries are never
// read. Region sums are taken in raster order.
//
// Three row-major entry points remain as converters over the frame path —
// modulation_tables(), infer_batch over std::vector<MatrixC> tables, and
// forward_backward over std::vector<MatrixD> gradients — because the layer
// probes of the repository benchmark (perfbench/src/layers.cpp) call them;
// each loads or stores its operands and runs the frame path, so its results
// are bitwise those of the frame entry points.
//
// Workspaces are caller-owned, one per concurrent caller, and never
// thread_local: a thread waiting on a common/parallel latch runs other
// queued tasks on its own stack, so a runner that kept its scratch per
// thread could be re-entered by a nested fan-out and have its buffers
// overwritten mid-sample.
//
// Thread-safety contract: every const member function is safe to call
// concurrently from any number of threads — inference reads the phase
// masks, the shared Propagator and the detector layout but mutates no model
// state. The non-const mutators (set_phases, set_masks, apply_masks,
// phases()) must not race with in-flight inference; the serving layer
// (src/serve) enforces this by only ever publishing models as
// shared_ptr<const DonnModel>.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "donn/detector.hpp"
#include "donn/loss.hpp"
#include "optics/encode.hpp"
#include "optics/propagate.hpp"
#include "sparsify/mask.hpp"

namespace odonn::donn {

enum class PhaseInit {
  /// Flat surface (pi + small noise): trained roughness reflects learned
  /// structure; matches the paper's baseline behavior under 2*pi
  /// optimization (<2% reduction). Default.
  Flat,
  /// Classic uniform [0, 2*pi) initialization (kept for ablation).
  Uniform,
};

struct DonnConfig {
  optics::GridSpec grid{optics::PaperSystem::kGridSize,
                        optics::PaperSystem::kPixelPitch};
  double wavelength = optics::PaperSystem::kWavelength;
  double distance = optics::PaperSystem::kLayerDistance;
  optics::KernelType kernel = optics::KernelType::AngularSpectrum;
  bool pad2x = false;
  std::size_t num_layers = optics::PaperSystem::kNumLayers;
  std::size_t num_classes = 10;
  std::size_t detector_size = optics::PaperSystem::kDetectorSize;
  DetectorMode detector = DetectorMode::Standard;
  PhaseInit init = PhaseInit::Flat;

  /// Exact paper geometry (§IV-A1).
  static DonnConfig paper();

  /// CPU-sized geometry with grid_n samples per side. Pixel pitch is chosen
  /// so the diffractive mixing ratio lambda*z/(n*pitch^2) matches the
  /// paper's 0.574, and the detector regions keep the paper's 10% linear
  /// fill — so the reduced system behaves like a shrunk paper system rather
  /// than a different optical regime.
  static DonnConfig scaled(std::size_t grid_n);
};

class DonnModel {
 public:
  /// Per-layer modulation tables w = exp(i*phi), one n x n frame per layer
  /// (see the header comment; idle lanes hold 0).
  using ModulationFrames = std::vector<fft::Frame>;

  /// Per-layer phase gradients in frame layout: dL/dphi of element (r, c)
  /// of layer l sits at plane offset fft::Frame::index(r, c) of plane l.
  /// Entries at idle lanes are scratch and never read.
  using FrameGradients = std::vector<fft::Plane>;

  /// Caller-owned scratch of the per-sample stack runner. Buffers are sized
  /// on first use and reused afterwards, so one workspace serves any number
  /// of sequential calls, on models of any grid; it must never be shared by
  /// two calls in flight at once (see the header comment).
  struct Workspace {
    fft::Frame field;  ///< the running field; the detector plane at the end
    /// Layer l's propagated input P(in), for the backward (entry 0 only when
    /// the run started from an input field).
    std::vector<fft::Frame> propagated;
    MatrixD intensity;  ///< |f|^2 at the detector plane (when asked for)
    std::vector<double> region_grads;  ///< 2 f dL/dI on the detector regions
    optics::Propagator::Workspace propagation;
  };

  /// Inputs already propagated to the first mask — one n x n frame P(input)
  /// per sample, the memory of its encoded field (plus the idle rows that
  /// round n up to whole lane groups) — tagged with the grid and
  /// PropagatorOptions that made them. Only first_hops() makes them, and
  /// the entry points that start from them throw ShapeError unless the model
  /// has the same grid and options (accepts()), i.e. unless it would have
  /// computed the same frames itself.
  class FirstHops {
   public:
    std::size_t size() const { return frames_.size(); }

   private:
    friend class DonnModel;
    // No default constructor, so a braced `{}` argument still means the
    // field overloads' empty input vector.
    FirstHops(const optics::GridSpec& grid,
              const optics::PropagatorOptions& propagation, std::size_t count)
        : grid_(grid), propagation_(propagation), frames_(count) {}

    optics::GridSpec grid_;
    optics::PropagatorOptions propagation_;
    std::vector<fft::Frame> frames_;
  };

  /// Initializes all phase masks uniformly in [0, 2*pi).
  DonnModel(const DonnConfig& config, Rng& rng);

  const DonnConfig& config() const { return config_; }
  std::size_t num_layers() const { return phases_.size(); }
  const ReadoutStrategy& detector() const { return detector_; }
  const optics::Propagator& propagator() const { return *propagator_; }

  std::vector<MatrixD>& phases() { return phases_; }
  const std::vector<MatrixD>& phases() const { return phases_; }
  void set_phases(std::vector<MatrixD> phases);

  /// Installs per-layer sparsity masks (empty vector clears). Masks are
  /// applied to the phases immediately and gradients through masked pixels
  /// are zeroed by mask_gradients().
  void set_masks(std::vector<sparsify::SparsityMask> masks);
  void clear_masks();
  bool has_masks() const { return !masks_.empty(); }
  const std::vector<sparsify::SparsityMask>& masks() const { return masks_; }

  /// Re-zeroes masked phase pixels (call after optimizer steps).
  void apply_masks();

  /// Zeroes gradient entries of masked-off pixels.
  void mask_gradients(std::vector<MatrixD>& grads) const;

  /// Field at the detector plane.
  optics::Field propagate_through(const optics::Field& input) const;

  /// Raw per-class scores (region intensity sums in Standard mode, signed
  /// +/- pair differences in Differential mode).
  std::vector<double> detector_sums(const optics::Field& input) const;

  /// argmax class, through the caller's tables (this model's
  /// modulation_frames()) and workspace.
  std::size_t predict(const optics::Field& input,
                      const ModulationFrames& modulations,
                      Workspace& workspace) const;

  /// Precomputed per-layer modulation tables w = exp(i*phi), shared across
  /// a batch so the transcendental cost of the masks is paid once per batch
  /// instead of once per sample; the layers are built in parallel. Recompute
  /// after set_phases/set_masks (the serving layer caches them per
  /// published model snapshot).
  ModulationFrames modulation_frames() const;

  /// The same tables, row-major (a converter over modulation_frames()).
  std::vector<MatrixC> modulation_tables() const;

  /// Plan-reusing batched inference core: evaluates inputs[k] for all k
  /// through the mask stack using the cached propagator and the supplied
  /// modulation tables, parallelized over samples via common/parallel with
  /// one workspace per chunk. Each non-null output vector is resized to
  /// inputs.size() and filled at index k with that sample's result. The
  /// same per-sample runner as the single-sample path; results are
  /// deterministic and independent of the thread count. Thread-safe
  /// (const; writes only to caller outputs).
  void infer_batch(const std::vector<optics::Field>& inputs,
                   const ModulationFrames& modulations,
                   std::vector<std::size_t>* predictions,
                   std::vector<std::vector<double>>* sums,
                   std::vector<MatrixD>* intensities) const;

  /// The same through row-major tables (a converter: loads them into
  /// frames, then runs the overload above).
  void infer_batch(const std::vector<optics::Field>& inputs,
                   const std::vector<MatrixC>& modulations,
                   std::vector<std::size_t>* predictions,
                   std::vector<std::vector<double>>* sums,
                   std::vector<MatrixD>* intensities) const;

  /// First hops of `count` inputs, input k being `input(k)`, under this
  /// model's propagator (parallel over inputs, so `input` must be safe to
  /// call concurrently). Any model that accepts() them may start from them.
  FirstHops first_hops(
      std::size_t count,
      const std::function<optics::Field(std::size_t)>& input) const;

  /// True when `hops` were made under this model's grid and
  /// PropagatorOptions.
  bool accepts(const FirstHops& hops) const;

  /// infer_batch of the inputs that made `hops`, started from their first
  /// hops: bitwise what the field overload returns. Throws ShapeError
  /// unless accepts(hops).
  void infer_batch(const FirstHops& hops,
                   const ModulationFrames& modulations,
                   std::vector<std::size_t>* predictions,
                   std::vector<std::vector<double>>* sums,
                   std::vector<MatrixD>* intensities) const;

  /// Batched raw per-class scores: infer_batch through this model's
  /// modulation_frames().
  std::vector<std::vector<double>> detector_sums_batch(
      const std::vector<optics::Field>& inputs) const;

  struct ForwardBackwardResult {
    double loss = 0.0;
    std::size_t predicted = 0;
  };

  /// One-sample forward + backward through the caller's tables (this
  /// model's modulation_frames()) and workspace. Phase gradients are
  /// ACCUMULATED into `phase_grads` (zero_frame_gradients() shapes); the
  /// data term only — regularizers are added by the trainer. Thread-safe
  /// for concurrent calls with distinct workspaces and gradient sets (model
  /// state is read-only here).
  ForwardBackwardResult forward_backward(
      const optics::Field& input, std::size_t label,
      const ModulationFrames& modulations, Workspace& workspace,
      FrameGradients& phase_grads, const LossOptions& loss_options) const;

  /// The same into row-major gradients (zero_gradients() shapes), building
  /// the tables and a workspace for this one call (a converter: loads
  /// `phase_grads` into frame layout, runs the overload above, stores them
  /// back).
  ForwardBackwardResult forward_backward(const optics::Field& input,
                                         std::size_t label,
                                         std::vector<MatrixD>& phase_grads,
                                         const LossOptions& loss_options) const;

  /// forward_backward of sample k of `hops`, started from its first hop:
  /// bitwise the loss and gradients of the field overload. Throws
  /// ShapeError unless accepts(hops).
  ForwardBackwardResult forward_backward(
      const FirstHops& hops, std::size_t k, std::size_t label,
      const ModulationFrames& modulations, Workspace& workspace,
      FrameGradients& phase_grads, const LossOptions& loss_options) const;

  /// Allocates a zeroed gradient set matching the phase shapes.
  std::vector<MatrixD> zero_gradients() const;

  /// Allocates a zeroed frame-layout gradient set (one plane per layer).
  FrameGradients zero_frame_gradients() const;

 private:
  /// Throws ShapeError unless `modulations` holds one grid-shaped table per
  /// layer.
  void check_modulations(const ModulationFrames& modulations,
                         const char* what) const;

  /// Loads `input` into `frame` and propagates it to the first mask: the
  /// one first-hop computation behind both runner entry points and
  /// first_hops().
  void first_hop(const optics::Field& input, fft::Frame& frame,
                 optics::Propagator::Workspace& propagation) const;

  /// The per-sample stack runner from the first hop `hop` — workspace.field
  /// or workspace.propagated[0] after first_hop(), or a FirstHops frame,
  /// which it only reads — on: leaves the detector-plane field in
  /// workspace.field; with `keep_propagated` (workspace.propagated already
  /// sized to the layer count), workspace.propagated[l] holds layer l's
  /// propagated field for every l >= 1 (layer 0's is `hop`). `modulations`
  /// must already be checked.
  void run_stack(const fft::Frame& hop, const ModulationFrames& modulations,
                 Workspace& workspace, bool keep_propagated) const;

  /// The inference runner from an input field: first_hop() into
  /// workspace.field, then run_stack() in place.
  void run_stack(const optics::Field& input,
                 const ModulationFrames& modulations,
                 Workspace& workspace) const;

  /// Both infer_batch overloads over `count` samples; run(k, workspace)
  /// runs sample k's stack.
  void infer_samples(
      std::size_t count, std::vector<std::size_t>* predictions,
      std::vector<std::vector<double>>* sums,
      std::vector<MatrixD>* intensities,
      const std::function<void(std::size_t, Workspace&)>& run) const;

  /// Both frame forward_backward overloads after the forward pass (run
  /// with keep_propagated from `hop`): evaluates the loss, then accumulates
  /// the backward pass into `phase_grads` (already checked).
  ForwardBackwardResult backward(std::size_t label, const fft::Frame& hop,
                                 const ModulationFrames& modulations,
                                 Workspace& workspace,
                                 FrameGradients& phase_grads,
                                 const LossOptions& loss_options) const;

  /// Throws ShapeError unless `phase_grads` holds one frame-sized plane per
  /// layer.
  void check_gradients(const FrameGradients& phase_grads) const;

  /// Per-class scores of the detector-plane frame in workspace.field.
  std::vector<double> readout(const Workspace& workspace) const;

  /// Fills workspace.intensity with |f|^2 of workspace.field.
  void fill_intensity(Workspace& workspace) const;

  DonnConfig config_;
  std::shared_ptr<const optics::Propagator> propagator_;
  std::vector<MatrixD> phases_;
  std::vector<sparsify::SparsityMask> masks_;
  ReadoutStrategy detector_;
};

}  // namespace odonn::donn

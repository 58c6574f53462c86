// Solver backends with a factorization cache keyed by (operator, shift).
//
// Every resolvent solve (sI - G1)^{-1} b, NORM moment solve, and implicit-
// integrator Newton step in the pipeline goes through a SolverBackend. The
// backend factors (shift*I - A) at most once per (operator identity, shift)
// and replays the factors for every subsequent right-hand side -- the
// "factor once per expansion point / Newton Jacobian, solve thousands of
// times" pattern the associated-transform method depends on.
//
// Backends are THREAD-SAFE: the cache map sits behind a shared mutex (solves
// replaying a cached factorisation only take the read side) and the stats
// counters are atomics, so the parallel fan-out layers (multipoint moments,
// frequency sweeps, batched transients) can share one backend across worker
// threads. Factorization handles themselves are immutable after construction
// and safe to solve against concurrently.
//
// Right-hand sides come in two granularities: single vectors, and n x k
// BLOCKS that make one pass over the factors per block (see SparseLu /
// LuFactorization blocked solves) -- column c of a block solve is bit-for-bit
// identical to the corresponding single-RHS solve.
//
// Three interchangeable backends:
//  * DenseLuBackend  -- dense partial-pivot LU; O(n^3) per (op, shift).
//  * SparseLuBackend -- sparse LU (sparse/splu.hpp); O(nnz + fill) per
//                       (op, shift), the sparse-first hot path.
//  * SchurBackend    -- one dense complex Schur factorisation per OPERATOR;
//                       every shift is then a triangular backsolve. Best for
//                       dense systems probed at many shifts (transfer-function
//                       sweeps, associated-transform moment chains).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "la/matrix.hpp"
#include "la/operator.hpp"

namespace atmor::la {

class ComplexSchur;

/// A reusable factorisation of (shift*I - A). Immutable: concurrent solve()
/// calls from multiple threads are safe.
class Factorization {
public:
    virtual ~Factorization() = default;
    [[nodiscard]] virtual int dim() const = 0;
    /// Solve (shift*I - A) x = b.
    [[nodiscard]] virtual ZVec solve(const ZVec& b) const = 0;
    /// Real solve into caller storage; requires the factorisation's shift to
    /// be real. x is resized to dim() and keeps its capacity, so the LU
    /// factorisations allocate nothing on a warmed x. b must hold dim()
    /// entries and must not be x (util::PreconditionError otherwise).
    virtual void solve_into(const Vec& b, Vec& x) const = 0;
    /// Real solve; allocating wrapper over solve_into.
    [[nodiscard]] Vec solve(const Vec& b) const;
    /// Blocked multi-RHS solves (B is n x k). The default forwards column by
    /// column; LU-based factorisations override with a single-pass blocked
    /// backsolve. Column c always equals solve(B.col(c)) bit for bit.
    [[nodiscard]] virtual ZMatrix solve(const ZMatrix& b) const;
    [[nodiscard]] virtual Matrix solve(const Matrix& b) const;
    /// Cheap conditioning probe in [0, 1]: min/max pivot magnitude (LU) or
    /// normalised spectral distance of the shift (Schur). Values near 0 mean
    /// the shifted matrix is numerically singular and solves are garbage.
    [[nodiscard]] virtual double pivot_ratio() const = 0;
};

struct SolverStats {
    long factorizations = 0;  ///< total factor work (cached-path misses + factorize())
    long cache_misses = 0;    ///< cached-path lookups that had to factor
    long cache_hits = 0;      ///< lookups served from a cached factorisation
    long solves = 0;          ///< total right-hand sides solved
    /// Largest dimension factorised so far. The serving layer asserts the
    /// online path stays at reduced order with this (a full-order
    /// factorisation sneaking into a warm path is a bug, not a slowdown).
    int max_factor_dim = 0;
};

class SolverBackend {
public:
    /// @param max_cached bound on live cache entries (FIFO eviction). Live
    ///        shared_ptr handles returned by factorization() stay valid after
    ///        eviction; only the cache slot is reclaimed.
    explicit SolverBackend(std::size_t max_cached = 16);
    virtual ~SolverBackend() = default;

    /// Cached factorisation of (shift*I - A); factors on first use. Safe to
    /// call concurrently: lookups take a shared lock, and a miss factors
    /// outside any lock (two threads racing on the same new key both factor;
    /// the first insertion wins and both receive the same handle).
    [[nodiscard]] std::shared_ptr<const Factorization> factorization(const LinearOperator& a,
                                                                     Complex shift);

    /// Uncached factorisation of (shift*I - A). For throwaway operators that
    /// will never be looked up again (e.g. per-refactor Newton Jacobians):
    /// the caller keeps the handle, and the cache is not polluted with
    /// entries whose operator ids never recur.
    [[nodiscard]] std::shared_ptr<const Factorization> factorize(const LinearOperator& a,
                                                                 Complex shift);

    /// Solve (shift*I - A) x = b through the cache.
    [[nodiscard]] ZVec solve_shifted(const LinearOperator& a, Complex shift, const ZVec& b);
    [[nodiscard]] Vec solve_shifted(const LinearOperator& a, double shift, const Vec& b);

    /// Blocked multi-RHS solves (shift*I - A) X = B through the cache; one
    /// factor-pass per block. Counts B.cols() towards stats().solves.
    [[nodiscard]] ZMatrix solve_shifted(const LinearOperator& a, Complex shift,
                                        const ZMatrix& b);
    [[nodiscard]] Matrix solve_shifted(const LinearOperator& a, double shift, const Matrix& b);

    /// Solve A x = b (factors the shift-0 resolvent and negates).
    [[nodiscard]] Vec solve(const LinearOperator& a, const Vec& b);

    /// Snapshot of the counters (atomics read individually; a snapshot taken
    /// while other threads solve is approximate but never torn per-field).
    [[nodiscard]] SolverStats stats() const;
    void clear_cache();
    [[nodiscard]] std::size_t cached_count() const;
    [[nodiscard]] virtual const char* name() const = 0;

protected:
    /// Factor (shift*I - A) from scratch (cache miss path). Must be safe to
    /// call concurrently for different (a, shift) pairs.
    [[nodiscard]] virtual std::shared_ptr<const Factorization> factor(const LinearOperator& a,
                                                                      Complex shift) = 0;

    [[nodiscard]] std::size_t max_cached() const { return max_cached_; }

private:
    struct Key {
        std::uint64_t id;
        double re;
        double im;
        bool operator==(const Key& o) const { return id == o.id && re == o.re && im == o.im; }
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const;
    };

    void note_factor_dim(int dim);

    mutable std::shared_mutex cache_mutex_;
    std::unordered_map<Key, std::shared_ptr<const Factorization>, KeyHash> cache_;
    std::deque<Key> insertion_order_;
    std::size_t max_cached_;
    std::atomic<long> factorizations_{0};
    std::atomic<long> cache_misses_{0};
    std::atomic<long> cache_hits_{0};
    std::atomic<long> solves_{0};
    std::atomic<int> max_factor_dim_{0};
};

/// Dense LU per (operator, shift). Real shifts factor in real arithmetic.
class DenseLuBackend final : public SolverBackend {
public:
    using SolverBackend::SolverBackend;
    [[nodiscard]] const char* name() const override { return "dense-lu"; }

protected:
    [[nodiscard]] std::shared_ptr<const Factorization> factor(const LinearOperator& a,
                                                              Complex shift) override;
};

/// Sparse LU per (operator, shift); operators without a CSR view are
/// converted once per factorisation (dense fallback preserved).
class SparseLuBackend final : public SolverBackend {
public:
    using SolverBackend::SolverBackend;
    [[nodiscard]] const char* name() const override { return "sparse-lu"; }

protected:
    [[nodiscard]] std::shared_ptr<const Factorization> factor(const LinearOperator& a,
                                                              Complex shift) override;
};

/// One complex Schur decomposition per operator; shifts are triangular
/// backsolves against the shared factors.
class SchurBackend final : public SolverBackend {
public:
    using SolverBackend::SolverBackend;
    [[nodiscard]] const char* name() const override { return "schur"; }

    /// The per-operator Schur factors (shared with AssociatedTransform so the
    /// Kronecker-structured solvers reuse the same decomposition).
    [[nodiscard]] std::shared_ptr<const ComplexSchur> schur_for(const LinearOperator& a);

    /// Number of distinct operators factorised (each one dense O(n^3) work).
    [[nodiscard]] long schur_count() const { return schur_count_.load(); }

protected:
    [[nodiscard]] std::shared_ptr<const Factorization> factor(const LinearOperator& a,
                                                              Complex shift) override;

private:
    // Bounded like the base cache (FIFO); live shared_ptr handles survive
    // eviction, only the slot is reclaimed. Guarded by schur_mutex_.
    std::mutex schur_mutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const ComplexSchur>> schur_;
    std::deque<std::uint64_t> schur_order_;
    std::atomic<long> schur_count_{0};
};

/// Conditioning of (shift*I - A) through the backend's cache: the cached
/// factorization's pivot_ratio(), or 0.0 when the factorisation breaks down
/// on exact singularity. Guards call this before moment generation; the
/// factorisation stays cached, so the probe also warms the solve path.
double shift_pivot_ratio(SolverBackend& backend, const LinearOperator& a, Complex shift);

/// Heuristic default for factor-and-solve workloads (Newton Jacobians,
/// resolvent chains): sparse LU when a CSR view exists, dense LU otherwise,
/// caching `max_cached` factorisations.
std::shared_ptr<SolverBackend> make_default_backend(const LinearOperator& a,
                                                    std::size_t max_cached = 16);

/// Heuristic default for many-shift resolvent workloads: sparse LU when a CSR
/// view exists, Schur otherwise, caching `max_cached` factorisations.
std::shared_ptr<SolverBackend> make_resolvent_backend(const LinearOperator& a,
                                                      std::size_t max_cached = 16);

}  // namespace atmor::la

#include "sparse/splu.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <type_traits>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace atmor::sparse {

namespace {

/// xi[0..k) -= m * xj[0..k) on the elementwise simd kernels (see la/lu.cpp:
/// add-of-negated-multiplier is bit-identical to the subtract form, keeping
/// the blocked-solve == single-solve exactness pins).
template <class T>
inline void row_sub(T* xi, T m, const T* xj, int k) {
    if constexpr (std::is_same_v<T, double>)
        la::simd::axpy(-m, xj, xi, static_cast<std::size_t>(k));
    else
        la::simd::zaxpy(-m, xj, xi, static_cast<std::size_t>(k));
}

/// Shared CSC assembly of (shift*I - A); the diagonal slot is always emitted.
template <class T>
Csc<T> build_shifted_csc(const CsrMatrix& a, T shift) {
    ATMOR_REQUIRE(a.rows() == a.cols(), "shifted_csc: matrix must be square");
    const int n = a.rows();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& vals = a.values();

    Csc<T> out;
    out.n = n;
    out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    // Count off-diagonal entries per column; every column also gets one
    // diagonal slot carrying shift - A_jj.
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            if (j != i) ++out.col_ptr[static_cast<std::size_t>(j) + 1];
        }
    for (int j = 0; j < n; ++j) ++out.col_ptr[static_cast<std::size_t>(j) + 1];  // diagonal
    for (int j = 0; j < n; ++j)
        out.col_ptr[static_cast<std::size_t>(j) + 1] += out.col_ptr[static_cast<std::size_t>(j)];

    const std::size_t nnz = static_cast<std::size_t>(out.col_ptr[static_cast<std::size_t>(n)]);
    out.row_idx.resize(nnz);
    out.values.resize(nnz);
    std::vector<int> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
    std::vector<T> diag(static_cast<std::size_t>(n), shift);
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            const double v = vals[static_cast<std::size_t>(k)];
            if (j == i) {
                diag[static_cast<std::size_t>(i)] -= v;
            } else {
                const int slot = next[static_cast<std::size_t>(j)]++;
                out.row_idx[static_cast<std::size_t>(slot)] = i;
                out.values[static_cast<std::size_t>(slot)] = T(-v);
            }
        }
    for (int j = 0; j < n; ++j) {
        const int slot = next[static_cast<std::size_t>(j)]++;
        out.row_idx[static_cast<std::size_t>(slot)] = j;
        out.values[static_cast<std::size_t>(slot)] = diag[static_cast<std::size_t>(j)];
    }
    return out;
}

}  // namespace

Csc<double> shifted_csc(const CsrMatrix& a, double shift) {
    return build_shifted_csc<double>(a, shift);
}

Csc<la::Complex> shifted_csc(const CsrMatrix& a, la::Complex shift) {
    return build_shifted_csc<la::Complex>(a, shift);
}

Csc<double> csc_of(const CsrMatrix& a) {
    ATMOR_REQUIRE(a.rows() == a.cols(), "csc_of: matrix must be square");
    const int n = a.rows();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& vals = a.values();
    Csc<double> out;
    out.n = n;
    out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int k = 0; k < a.nnz(); ++k) ++out.col_ptr[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]) + 1];
    for (int j = 0; j < n; ++j)
        out.col_ptr[static_cast<std::size_t>(j) + 1] += out.col_ptr[static_cast<std::size_t>(j)];
    out.row_idx.resize(static_cast<std::size_t>(a.nnz()));
    out.values.resize(static_cast<std::size_t>(a.nnz()));
    std::vector<int> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            const int slot = next[static_cast<std::size_t>(j)]++;
            out.row_idx[static_cast<std::size_t>(slot)] = i;
            out.values[static_cast<std::size_t>(slot)] = vals[static_cast<std::size_t>(k)];
        }
    return out;
}

namespace {

/// The pattern of A + A^T with the diagonal dropped: sorted, duplicate-free
/// neighbour lists in compressed form.
struct Graph {
    int n = 0;
    std::vector<int> ptr;  ///< size n + 1
    std::vector<int> adj;  ///< size ptr[n]
    [[nodiscard]] int degree(int v) const {
        return ptr[static_cast<std::size_t>(v) + 1] - ptr[static_cast<std::size_t>(v)];
    }
};

Graph symmetric_graph(int n, const std::vector<int>& ptr, const std::vector<int>& idx) {
    ATMOR_REQUIRE(n >= 0 && ptr.size() == static_cast<std::size_t>(n) + 1 && ptr[0] == 0 &&
                      static_cast<std::size_t>(ptr.back()) <= idx.size(),
                  "sparse ordering: malformed pattern");
    Graph g;
    g.n = n;
    std::vector<int> start(static_cast<std::size_t>(n) + 1, 0);
    for (int j = 0; j < n; ++j) {
        ATMOR_REQUIRE(ptr[static_cast<std::size_t>(j)] <= ptr[static_cast<std::size_t>(j) + 1],
                      "sparse ordering: malformed pattern");
        for (int p = ptr[static_cast<std::size_t>(j)]; p < ptr[static_cast<std::size_t>(j) + 1];
             ++p) {
            const int i = idx[static_cast<std::size_t>(p)];
            ATMOR_REQUIRE(i >= 0 && i < n, "sparse ordering: index out of range");
            if (i == j) continue;
            ++start[static_cast<std::size_t>(i) + 1];
            ++start[static_cast<std::size_t>(j) + 1];
        }
    }
    for (int v = 0; v < n; ++v)
        start[static_cast<std::size_t>(v) + 1] += start[static_cast<std::size_t>(v)];
    std::vector<int> both(static_cast<std::size_t>(start.back()));
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (int j = 0; j < n; ++j)
        for (int p = ptr[static_cast<std::size_t>(j)]; p < ptr[static_cast<std::size_t>(j) + 1];
             ++p) {
            const int i = idx[static_cast<std::size_t>(p)];
            if (i == j) continue;
            both[static_cast<std::size_t>(fill[static_cast<std::size_t>(i)]++)] = j;
            both[static_cast<std::size_t>(fill[static_cast<std::size_t>(j)]++)] = i;
        }
    // Sort and deduplicate each list, compacting in place.
    g.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    int out = 0;
    for (int v = 0; v < n; ++v) {
        const auto first = both.begin() + start[static_cast<std::size_t>(v)];
        const auto last = both.begin() + start[static_cast<std::size_t>(v) + 1];
        std::sort(first, last);
        const auto uend = std::unique(first, last);
        for (auto it = first; it != uend; ++it) both[static_cast<std::size_t>(out++)] = *it;
        g.ptr[static_cast<std::size_t>(v) + 1] = out;
    }
    both.resize(static_cast<std::size_t>(out));
    g.adj = std::move(both);
    return g;
}

std::vector<int> rcm(const Graph& g) {
    const int n = g.n;
    // Every node once, in (degree, index) order: a counting sort by degree
    // keeps index order within a degree. Component roots are taken from it
    // with an advancing cursor, since nodes behind the cursor stay visited.
    std::vector<int> by_degree(static_cast<std::size_t>(n));
    {
        std::vector<int> slot(static_cast<std::size_t>(n) + 1, 0);
        for (int v = 0; v < n; ++v) ++slot[static_cast<std::size_t>(g.degree(v)) + 1];
        for (int d = 0; d < n; ++d)
            slot[static_cast<std::size_t>(d) + 1] += slot[static_cast<std::size_t>(d)];
        for (int v = 0; v < n; ++v)
            by_degree[static_cast<std::size_t>(slot[static_cast<std::size_t>(g.degree(v))]++)] = v;
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(n));
    std::vector<int> next;
    std::size_t cursor = 0;
    for (;;) {
        // Root: unvisited node of minimum degree (pseudo-peripheral enough).
        while (cursor < by_degree.size() && visited[static_cast<std::size_t>(by_degree[cursor])])
            ++cursor;
        if (cursor == by_degree.size()) break;
        const int root = by_degree[cursor];
        queue.clear();
        queue.push_back(root);
        visited[static_cast<std::size_t>(root)] = 1;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const int v = queue[head];
            order.push_back(v);
            next.clear();
            for (int p = g.ptr[static_cast<std::size_t>(v)];
                 p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
                const int w = g.adj[static_cast<std::size_t>(p)];
                if (!visited[static_cast<std::size_t>(w)]) {
                    visited[static_cast<std::size_t>(w)] = 1;
                    next.push_back(w);
                }
            }
            std::sort(next.begin(), next.end(),
                      [&](int x, int y) { return g.degree(x) < g.degree(y); });
            queue.insert(queue.end(), next.begin(), next.end());
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/// Strictly-lower nonzeros of the Cholesky factor of A + A^T under q: one
/// pass that builds the elimination tree and walks each row's subtree up it
/// (Liu; Davis 2006, Sec. 4), O(nnz(L)).
long predicted_fill(const Graph& g, const std::vector<int>& q) {
    const std::size_t n = static_cast<std::size_t>(g.n);
    std::vector<int> qinv(n), parent(n), flag(n);
    for (std::size_t k = 0; k < n; ++k) qinv[static_cast<std::size_t>(q[k])] = static_cast<int>(k);
    long count = 0;
    for (int k = 0; k < g.n; ++k) {
        parent[static_cast<std::size_t>(k)] = -1;
        flag[static_cast<std::size_t>(k)] = k;
        const int v = q[static_cast<std::size_t>(k)];
        for (int p = g.ptr[static_cast<std::size_t>(v)]; p < g.ptr[static_cast<std::size_t>(v) + 1];
             ++p) {
            int i = qinv[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(p)])];
            for (; i < k && flag[static_cast<std::size_t>(i)] != k;
                 i = parent[static_cast<std::size_t>(i)]) {
                if (parent[static_cast<std::size_t>(i)] == -1)
                    parent[static_cast<std::size_t>(i)] = k;
                flag[static_cast<std::size_t>(i)] = k;
                ++count;
            }
        }
    }
    return count;
}

/// Assembly-tree links: -1 is a root, flip(p) <= -2 points to parent p.
constexpr int flip(int i) { return -i - 2; }

/// Restart the w marks when mark could overflow within one pivot step (it
/// grows by at most lemax + n <= 2n per step); afterwards w[e] < mark holds
/// for every live element.
int fresh_mark(int mark, int* w, int n) {
    if (mark < 2 || static_cast<long>(mark) > std::numeric_limits<int>::max() - 3L * n - 3) {
        for (int e = 0; e < n; ++e)
            if (w[e] != 0) w[e] = 1;
        return 2;
    }
    return mark;
}

/// Approximate minimum degree (Amestoy, Davis and Duff 1996), in the
/// workspace layout of Davis 2006, Sec. 7.1. Variables (uneliminated nodes)
/// and elements (eliminated pivots, each standing for the clique its
/// elimination created) share one index array iw: pe[i] starts i's list,
/// whose first elen[i] entries are elements and the rest of its len[i] are
/// variables. Eliminating pivot k merges k's variables and its elements'
/// variables into the new element Lk and absorbs those elements, so the
/// graph never outgrows its input plus one list per pivot. A variable's
/// degree is the AMD bound |Lk \ i| + sum_e |Le \ Lk| + |Ai \ Lk|, kept in
/// bucketed lists; variables with identical lists merge into supervariables
/// (hash, then compare), and rows denser than 10 sqrt(n) are ordered last.
std::vector<int> amd(const Graph& g) {
    const int n = g.n;
    if (n == 0) return {};
    const int nnz = g.ptr[static_cast<std::size_t>(n)];
    const int sqrt_cut = static_cast<int>(10.0 * std::sqrt(static_cast<double>(n)));
    const int dense = std::min(n - 2, std::max(16, sqrt_cut));
    // Elbow room for new elements; garbage collection compacts iw when a new
    // element would not fit.
    const long cap_l = static_cast<long>(nnz) + nnz / 5 + 2L * n;
    ATMOR_REQUIRE(cap_l + n <= std::numeric_limits<int>::max(), "amd_order: pattern too large");
    const int cap = static_cast<int>(cap_l);
    std::vector<int> iw_store(static_cast<std::size_t>(cap));
    std::copy(g.adj.begin(), g.adj.end(), iw_store.begin());
    int* const iw = iw_store.data();
    // Per-node arrays of n + 1 entries (node n collects the dense rows):
    //   pe      start of i's list in iw; -1 at a root, flip(parent) once absorbed
    //   len     length of i's list
    //   nv      supervariable size; negated while i is in Lk, 0 once absorbed
    //   next    degree lists, then hash chains
    //   last    degree lists, then the hash bucket of i
    //   head    degree list heads
    //   elen    elements in a variable's list; -2 for an element, -1 dead
    //   degree  approximate degree (external degree of an element)
    //   w       |Le \ Lk| + mark during a pivot step; 0 marks a dead element
    //   hhead   hash bucket heads
    std::vector<int> ws(10 * (static_cast<std::size_t>(n) + 1));
    int* const pe = ws.data();
    int* const len = pe + (n + 1);
    int* const nv = len + (n + 1);
    int* const next = nv + (n + 1);
    int* const last = next + (n + 1);
    int* const head = last + (n + 1);
    int* const elen = head + (n + 1);
    int* const degree = elen + (n + 1);
    int* const w = degree + (n + 1);
    int* const hhead = w + (n + 1);
    const auto unlink_degree = [&](int i) {
        if (next[i] != -1) last[next[i]] = last[i];
        if (last[i] != -1)
            next[last[i]] = next[i];
        else
            head[degree[i]] = next[i];
    };
    const auto link_degree = [&](int i, int d) {
        if (head[d] != -1) last[head[d]] = i;
        next[i] = head[d];
        last[i] = -1;
        head[d] = i;
    };

    for (int i = 0; i <= n; ++i) {
        pe[i] = i < n ? g.ptr[static_cast<std::size_t>(i)] : -1;
        len[i] = i < n ? g.degree(i) : 0;
        head[i] = next[i] = last[i] = hhead[i] = -1;
        nv[i] = 1;
        w[i] = 1;
        elen[i] = 0;
        degree[i] = len[i];
    }
    // Node n is a dead element that collects the dense rows.
    elen[n] = -2;
    w[n] = 0;
    int eliminated = 0;
    for (int i = 0; i < n; ++i) {
        if (degree[i] == 0) {  // isolated: an element at once, a tree root
            elen[i] = -2;
            pe[i] = -1;
            w[i] = 0;
            ++eliminated;
        } else if (degree[i] > dense) {  // dense: absorbed into node n
            nv[i] = 0;
            elen[i] = -1;
            pe[i] = flip(n);
            ++nv[n];
            ++eliminated;
        } else {
            link_degree(i, degree[i]);
        }
    }

    int mark = fresh_mark(0, w, n);
    int mindeg = 0;
    int lemax = 0;
    int cnz = nnz;  // iw[cnz, cap) is free
    while (eliminated < n) {
        // -- Pivot: a variable of least approximate degree.
        while (mindeg < n && head[mindeg] == -1) ++mindeg;
        ATMOR_CHECK(mindeg < n, "amd_order: degree lists empty before every node was ordered");
        const int k = head[mindeg];
        unlink_degree(k);
        const int elenk = elen[k];
        int nvk = nv[k];
        eliminated += nvk;

        // -- Garbage collection: compact the live lists to the front of iw.
        if (elenk > 0 && cnz + mindeg >= cap) {
            for (int j = 0; j < n; ++j) {
                const int p = pe[j];
                if (p >= 0) {  // tag the first slot of j's list with j
                    pe[j] = iw[p];
                    iw[p] = flip(j);
                }
            }
            int q = 0;
            for (int p = 0; p < cnz;) {
                const int j = flip(iw[p++]);
                if (j < 0) continue;
                iw[q] = pe[j];
                pe[j] = q++;
                for (int t = 0; t < len[j] - 1; ++t) iw[q++] = iw[p++];
            }
            cnz = q;
        }

        // -- New element Lk: k's variables plus the variables of k's
        // elements, which are absorbed into k. Built in place when k has no
        // elements, else at the free end of iw.
        int dk = 0;
        nv[k] = -nvk;
        int p = pe[k];
        const int pk1 = elenk == 0 ? p : cnz;
        int pk2 = pk1;
        for (int k1 = 1; k1 <= elenk + 1; ++k1) {
            int e = k;
            int pj = p;
            int ln = len[k] - elenk;
            if (k1 <= elenk) {
                e = iw[p++];
                pj = pe[e];
                ln = len[e];
            }
            for (int k2 = 1; k2 <= ln; ++k2) {
                const int i = iw[pj++];
                const int nvi = nv[i];
                if (nvi <= 0) continue;  // dead, or already in Lk
                dk += nvi;
                nv[i] = -nvi;
                iw[pk2++] = i;
                unlink_degree(i);
            }
            if (e != k) {
                pe[e] = flip(k);
                w[e] = 0;
            }
        }
        if (elenk != 0) cnz = pk2;
        degree[k] = dk;
        pe[k] = pk1;
        len[k] = pk2 - pk1;
        elen[k] = -2;

        // -- Set differences: w[e] - mark = |Le \ Lk| for each element e
        // adjacent to Lk.
        mark = fresh_mark(mark, w, n);
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            const int eln = elen[i];
            if (eln <= 0) continue;
            const int nvi = -nv[i];
            const int wnvi = mark - nvi;
            for (int q = pe[i]; q < pe[i] + eln; ++q) {
                const int e = iw[q];
                if (w[e] >= mark)
                    w[e] -= nvi;
                else if (w[e] != 0)  // first sight of a live element
                    w[e] = degree[e] + wnvi;
            }
        }

        // -- Degree update of every variable in Lk; prune its lists and hash
        // it for the supervariable search.
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            const int p1 = pe[i];
            const int p2 = p1 + elen[i] - 1;
            int pn = p1;
            unsigned long h = 0;
            int d = 0;
            for (int q = p1; q <= p2; ++q) {
                const int e = iw[q];
                if (w[e] == 0) continue;  // absorbed
                const int dext = w[e] - mark;
                if (dext > 0) {
                    d += dext;
                    iw[pn++] = e;
                    h += static_cast<unsigned long>(e);
                } else {  // Le inside Lk: aggressive absorption into k
                    pe[e] = flip(k);
                    w[e] = 0;
                }
            }
            elen[i] = pn - p1 + 1;
            const int p3 = pn;
            const int p4 = p1 + len[i];
            for (int q = p2 + 1; q < p4; ++q) {
                const int j = iw[q];
                const int nvj = nv[j];
                if (nvj <= 0) continue;  // dead, or in Lk
                d += nvj;
                iw[pn++] = j;
                h += static_cast<unsigned long>(j);
            }
            if (d == 0) {  // mass elimination: i touches nothing outside Lk
                pe[i] = flip(k);
                const int nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                eliminated += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = std::min(degree[i], d);
                // k becomes i's first element; the displaced entries move
                // to the ends of their sections.
                iw[pn] = iw[p3];
                iw[p3] = iw[p1];
                iw[p1] = k;
                len[i] = pn - p1 + 1;
                const int bucket = static_cast<int>(h % static_cast<unsigned long>(n));
                next[i] = hhead[bucket];
                hhead[bucket] = i;
                last[i] = bucket;
            }
        }
        degree[k] = dk;
        lemax = std::max(lemax, dk);
        mark = fresh_mark(mark + lemax, w, n);

        // -- Supervariables: variables of Lk with identical lists merge.
        for (int pk = pk1; pk < pk2; ++pk) {
            int i = iw[pk];
            if (nv[i] >= 0) continue;  // mass-eliminated above
            const int bucket = last[i];
            i = hhead[bucket];
            hhead[bucket] = -1;
            for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
                const int ln = len[i];
                const int eln = elen[i];
                for (int q = pe[i] + 1; q < pe[i] + ln; ++q) w[iw[q]] = mark;
                int jlast = i;
                for (int j = next[i]; j != -1;) {
                    bool same = len[j] == ln && elen[j] == eln;
                    for (int q = pe[j] + 1; same && q < pe[j] + ln; ++q)
                        same = w[iw[q]] == mark;
                    if (same) {  // absorb j into i
                        pe[j] = flip(i);
                        nv[i] += nv[j];
                        nv[j] = 0;
                        elen[j] = -1;
                        j = next[j];
                        next[jlast] = j;
                    } else {
                        jlast = j;
                        j = next[j];
                    }
                }
            }
        }

        // -- Finalise Lk: external degrees back into the degree lists.
        int pf = pk1;
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            const int nvi = -nv[i];
            if (nvi <= 0) continue;  // absorbed
            nv[i] = nvi;
            const int d = std::min(degree[i] + dk - nvi, n - eliminated - nvi);
            link_degree(i, d);
            mindeg = std::min(mindeg, d);
            degree[i] = d;
            iw[pf++] = i;
        }
        nv[k] = nvk;
        len[k] = pf - pk1;
        if (len[k] == 0) {  // k is a root of the assembly tree
            pe[k] = -1;
            w[k] = 0;
        }
        if (elenk != 0) cnz = pf;
    }

    // -- Postorder the assembly tree. Children lists hold elements first,
    // then the variables absorbed into their parent, each by index.
    for (int i = 0; i < n; ++i) pe[i] = flip(pe[i]);  // parent, or -1 at a root
    for (int j = 0; j <= n; ++j) head[j] = -1;
    for (int j = n; j >= 0; --j) {
        if (nv[j] > 0) continue;
        next[j] = head[pe[j]];
        head[pe[j]] = j;
    }
    for (int e = n; e >= 0; --e) {
        if (nv[e] <= 0 || pe[e] == -1) continue;
        next[e] = head[pe[e]];
        head[pe[e]] = e;
    }
    std::vector<int> post;
    post.reserve(static_cast<std::size_t>(n) + 1);
    int* const stack = w;
    for (int r = 0; r <= n; ++r) {
        if (pe[r] != -1) continue;
        int top = 0;
        stack[0] = r;
        while (top >= 0) {
            const int v = stack[top];
            const int c = head[v];
            if (c == -1) {
                --top;
                post.push_back(v);
            } else {
                head[v] = next[c];
                stack[++top] = c;
            }
        }
    }
    ATMOR_CHECK(static_cast<int>(post.size()) == n + 1 && post.back() == n,
                "amd_order: assembly tree does not cover every node");
    post.pop_back();
    return post;
}

}  // namespace

std::vector<int> rcm_order(int n, const std::vector<int>& ptr, const std::vector<int>& idx) {
    return rcm(symmetric_graph(n, ptr, idx));
}

std::vector<int> amd_order(int n, const std::vector<int>& ptr, const std::vector<int>& idx) {
    return amd(symmetric_graph(n, ptr, idx));
}

std::vector<int> fill_reducing_order(int n, const std::vector<int>& ptr,
                                     const std::vector<int>& idx) {
    const Graph g = symmetric_graph(n, ptr, idx);
    std::vector<int> q = rcm(g);
    const long rcm_fill = predicted_fill(g, q);
    // The pattern's own lower triangle: RCM fills nothing beyond it on
    // ladders and trees, and then its order is kept untouched.
    if (rcm_fill <= static_cast<long>(g.adj.size()) / 2) return q;
    std::vector<int> md = amd(g);
    if (predicted_fill(g, md) < rcm_fill) q = std::move(md);
    return q;
}

template <class T>
SparseLu<T>::SparseLu(const Csc<T>& a, const std::vector<int>& q) {
    ATMOR_REQUIRE(a.n >= 1, "SparseLu: empty matrix");
    ATMOR_REQUIRE(static_cast<int>(a.col_ptr.size()) == a.n + 1, "SparseLu: bad col_ptr");
    ATMOR_REQUIRE(static_cast<int>(q.size()) == a.n, "SparseLu: order size mismatch");
    n_ = a.n;
    q_ = q;
    // Permuted matrix B[i, j] = A[q[i], q[j]] (counting-sort rebuild).
    std::vector<int> qi(static_cast<std::size_t>(n_), -1);
    for (int k = 0; k < n_; ++k) {
        const int v = q_[static_cast<std::size_t>(k)];
        ATMOR_REQUIRE(v >= 0 && v < n_ && qi[static_cast<std::size_t>(v)] < 0,
                      "SparseLu: order is not a permutation");
        qi[static_cast<std::size_t>(v)] = k;
    }
    Csc<T> b;
    b.n = n_;
    b.col_ptr.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (int jo = 0; jo < n_; ++jo) {
        const int jn = qi[static_cast<std::size_t>(jo)];
        b.col_ptr[static_cast<std::size_t>(jn) + 1] +=
            a.col_ptr[static_cast<std::size_t>(jo) + 1] - a.col_ptr[static_cast<std::size_t>(jo)];
    }
    for (int j = 0; j < n_; ++j)
        b.col_ptr[static_cast<std::size_t>(j) + 1] += b.col_ptr[static_cast<std::size_t>(j)];
    b.row_idx.resize(a.row_idx.size());
    b.values.resize(a.values.size());
    std::vector<int> next(b.col_ptr.begin(), b.col_ptr.end() - 1);
    for (int jo = 0; jo < n_; ++jo) {
        const int jn = qi[static_cast<std::size_t>(jo)];
        for (int p = a.col_ptr[static_cast<std::size_t>(jo)];
             p < a.col_ptr[static_cast<std::size_t>(jo) + 1]; ++p) {
            const int slot = next[static_cast<std::size_t>(jn)]++;
            b.row_idx[static_cast<std::size_t>(slot)] =
                qi[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(p)])];
            b.values[static_cast<std::size_t>(slot)] = a.values[static_cast<std::size_t>(p)];
        }
    }
    factor(b);
    src_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i)
        src_[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])] =
            q_[static_cast<std::size_t>(i)];
}

template <class T>
void SparseLu<T>::factor(const Csc<T>& a) {
    const int n = n_;
    lp_.assign(static_cast<std::size_t>(n) + 1, 0);
    up_.assign(static_cast<std::size_t>(n) + 1, 0);
    pinv_.assign(static_cast<std::size_t>(n), -1);
    li_.reserve(a.row_idx.size());
    lx_.reserve(a.values.size());
    ui_.reserve(a.row_idx.size());
    ux_.reserve(a.values.size());

    std::vector<T> x(static_cast<std::size_t>(n), T(0));
    std::vector<char> mark(static_cast<std::size_t>(n), 0);
    std::vector<int> xi(static_cast<std::size_t>(n));
    std::vector<int> stack(static_cast<std::size_t>(n));
    std::vector<int> pstack(static_cast<std::size_t>(n));

    for (int k = 0; k < n; ++k) {
        // --- Reach: nonzero pattern of L \ A(:,k), topological order in
        // xi[top..n). DFS over the column graph of the L computed so far.
        int top = n;
        for (int p = a.col_ptr[static_cast<std::size_t>(k)];
             p < a.col_ptr[static_cast<std::size_t>(k) + 1]; ++p) {
            const int root = a.row_idx[static_cast<std::size_t>(p)];
            if (mark[static_cast<std::size_t>(root)]) continue;
            int head = 0;
            stack[0] = root;
            while (head >= 0) {
                const int v = stack[static_cast<std::size_t>(head)];
                if (!mark[static_cast<std::size_t>(v)]) {
                    mark[static_cast<std::size_t>(v)] = 1;
                    pstack[static_cast<std::size_t>(head)] =
                        (pinv_[static_cast<std::size_t>(v)] < 0)
                            ? 0
                            : lp_[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(v)])];
                }
                bool descended = false;
                const int colv = pinv_[static_cast<std::size_t>(v)];
                if (colv >= 0) {
                    const int pend = lp_[static_cast<std::size_t>(colv) + 1];
                    int& pp = pstack[static_cast<std::size_t>(head)];
                    while (pp < pend) {
                        const int w = li_[static_cast<std::size_t>(pp)];
                        ++pp;
                        if (!mark[static_cast<std::size_t>(w)]) {
                            stack[static_cast<std::size_t>(++head)] = w;
                            descended = true;
                            break;
                        }
                    }
                }
                if (!descended) {
                    xi[static_cast<std::size_t>(--top)] = v;
                    --head;
                }
            }
        }

        // --- Numeric sparse triangular solve x = L \ A(:,k).
        for (int p = a.col_ptr[static_cast<std::size_t>(k)];
             p < a.col_ptr[static_cast<std::size_t>(k) + 1]; ++p)
            x[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(p)])] =
                a.values[static_cast<std::size_t>(p)];
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            const int coli = pinv_[static_cast<std::size_t>(i)];
            if (coli < 0) continue;
            const T xi_val = x[static_cast<std::size_t>(i)];
            if (xi_val == T(0)) continue;
            for (int q = lp_[static_cast<std::size_t>(coli)] + 1;
                 q < lp_[static_cast<std::size_t>(coli) + 1]; ++q)
                x[static_cast<std::size_t>(li_[static_cast<std::size_t>(q)])] -=
                    lx_[static_cast<std::size_t>(q)] * xi_val;
        }

        // --- Partial pivoting over the not-yet-pivotal rows.
        int ipiv = -1;
        double pivmag = -1.0;
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            if (pinv_[static_cast<std::size_t>(i)] < 0) {
                const double t = std::abs(x[static_cast<std::size_t>(i)]);
                if (t > pivmag) {
                    pivmag = t;
                    ipiv = i;
                }
            } else {
                ui_.push_back(pinv_[static_cast<std::size_t>(i)]);
                ux_.push_back(x[static_cast<std::size_t>(i)]);
            }
        }
        ATMOR_CHECK(ipiv >= 0 && pivmag > 0.0,
                    "SparseLu: matrix is numerically singular at column " << k);
        const T pivot = x[static_cast<std::size_t>(ipiv)];
        pinv_[static_cast<std::size_t>(ipiv)] = k;
        li_.push_back(ipiv);
        lx_.push_back(T(1));
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            if (pinv_[static_cast<std::size_t>(i)] < 0) {
                li_.push_back(i);
                lx_.push_back(x[static_cast<std::size_t>(i)] / pivot);
            }
            x[static_cast<std::size_t>(i)] = T(0);
            mark[static_cast<std::size_t>(i)] = 0;
        }
        ui_.push_back(k);
        ux_.push_back(pivot);
        lp_[static_cast<std::size_t>(k) + 1] = static_cast<int>(li_.size());
        up_[static_cast<std::size_t>(k) + 1] = static_cast<int>(ui_.size());
    }

    // Remap L's row indices from original to pivot order (CSparse fixup), so
    // the solve phase works on a proper lower triangle.
    for (auto& i : li_) i = pinv_[static_cast<std::size_t>(i)];
}

template <class T>
void SparseLu<T>::solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    ATMOR_REQUIRE(static_cast<int>(b.size()) == n_, "SparseLu::solve: size mismatch");
    ATMOR_REQUIRE(&b != &x, "SparseLu::solve_into: b and x must be distinct vectors");
    x.resize(static_cast<std::size_t>(n_));
    T* xs = x.data();
    const int* q = q_.data();
    const int* src = src_.data();
    const int* lp = lp_.data();
    const int* li = li_.data();
    const T* lx = lx_.data();
    const int* up = up_.data();
    const int* ui = ui_.data();
    const T* ux = ux_.data();
    // Pivot-space row j lives at xs[q[j]] and starts as b[src[j]]: the fill-
    // reducing order and the pivot permutation are composed on the way in,
    // and x is the answer once the substitution finishes.
    for (int j = 0; j < n_; ++j) xs[q[j]] = b[static_cast<std::size_t>(src[j])];
    // L y = P b (unit diagonal stored first in each column).
    for (int j = 0; j < n_; ++j) {
        const T xj = xs[q[j]];
        if (xj == T(0)) continue;
        for (int p = lp[j] + 1; p < lp[j + 1]; ++p) xs[q[li[p]]] -= lx[p] * xj;
    }
    // U x = y (diagonal stored last in each column).
    for (int j = n_ - 1; j >= 0; --j) {
        xs[q[j]] /= ux[up[j + 1] - 1];
        const T xj = xs[q[j]];
        if (xj == T(0)) continue;
        for (int p = up[j]; p < up[j + 1] - 1; ++p) xs[q[ui[p]]] -= ux[p] * xj;
    }
}

template <class T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
}

template <class T>
la::DenseMatrix<T> SparseLu<T>::solve(const la::DenseMatrix<T>& b) const {
    ATMOR_REQUIRE(b.rows() == n_, "SparseLu::solve: block row mismatch");
    const int n = n_;
    const int k = b.cols();
    // Working storage is laid out in OUTPUT index order (pivot-space row j at
    // storage row q_[j]), so the result needs no final permute pass: x IS the
    // answer when the substitution finishes. Row-major, so every factor entry
    // applies across a contiguous k-wide row.
    la::DenseMatrix<T> x(n, k);
    for (int j = 0; j < n; ++j) {
        const T* src = b.row_ptr(src_[static_cast<std::size_t>(j)]);
        T* dst = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int c = 0; c < k; ++c) dst[c] = src[c];
    }
    // L Y = P B: one traversal of L's entries, each applied across the block.
    for (int j = 0; j < n; ++j) {
        const T* xj = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int p = lp_[static_cast<std::size_t>(j)] + 1;
             p < lp_[static_cast<std::size_t>(j) + 1]; ++p) {
            T* xi = x.row_ptr(
                q_[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])]);
            row_sub(xi, lx_[static_cast<std::size_t>(p)], xj, k);
        }
    }
    // U X = Y.
    for (int j = n - 1; j >= 0; --j) {
        const T d = ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1] - 1)];
        T* xj = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int c = 0; c < k; ++c) xj[c] /= d;
        for (int p = up_[static_cast<std::size_t>(j)];
             p < up_[static_cast<std::size_t>(j) + 1] - 1; ++p) {
            T* xi = x.row_ptr(
                q_[static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)])]);
            row_sub(xi, ux_[static_cast<std::size_t>(p)], xj, k);
        }
    }
    return x;
}

template <class T>
double SparseLu<T>::pivot_ratio() const {
    double lo = 0.0, hi = 0.0;
    for (int j = 0; j < n_; ++j) {
        const double d =
            std::abs(ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1] - 1)]);
        if (j == 0) {
            lo = hi = d;
        } else {
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

template class SparseLu<double>;
template class SparseLu<la::Complex>;

namespace {

std::vector<int> order_of(const CsrMatrix& a) {
    return fill_reducing_order(a.rows(), a.row_ptr(), a.col_idx());
}

}  // namespace

SpLu splu(const CsrMatrix& a) { return SpLu(csc_of(a), order_of(a)); }

SpLu splu_shifted(const CsrMatrix& a, double shift) {
    return SpLu(shifted_csc(a, shift), order_of(a));
}

ZSpLu splu_shifted(const CsrMatrix& a, la::Complex shift) {
    return ZSpLu(shifted_csc(a, shift), order_of(a));
}

}  // namespace atmor::sparse

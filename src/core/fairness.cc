#include "fairness.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/exact_sum.hh"
#include "util/logging.hh"

namespace ref::core {

namespace {

void
requireShapes(const AgentList &agents, const Allocation &allocation)
{
    REF_REQUIRE(!agents.empty(), "no agents to check");
    REF_REQUIRE(agents.size() == allocation.agents(),
                "allocation covers " << allocation.agents()
                    << " agents, got " << agents.size());
    for (const Agent &agent : agents) {
        REF_REQUIRE(agent.utility().resources() ==
                        allocation.resources(),
                    "agent '" << agent.name() << "' utility covers "
                        << agent.utility().resources()
                        << " resources, allocation has "
                        << allocation.resources());
    }
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** Row i's elasticities, one per resource. */
const double *
alphasOf(const AgentRows &rows, std::size_t i)
{
    return rows.elasticities + i * rows.allocation->resources();
}

/** Row i's log a0. */
double
logScaleOf(const AgentRows &rows, std::size_t i)
{
    return rows.logScales != nullptr ? rows.logScales[i] : 0.0;
}

/** Lower row @p i's entry of a non-null @p minima to @p slack. */
void
noteLabel(const AgentRows &rows, std::vector<double> *minima,
          std::size_t i, double slack)
{
    if (minima != nullptr && rows.labels != nullptr &&
        rows.labels[i] != kNoLabel)
        (*minima)[rows.labels[i]] =
            std::min((*minima)[rows.labels[i]], slack);
}

/**
 * The row-by-row logValue loops throw logValue's error on the lowest
 * bundle it rejects (each such loop evaluates every bundle, in row
 * order, before it could throw on a later one): raise exactly that
 * error. The message depends on the bundle alone.
 */
void
raiseRejected(const AgentRows &rows)
{
    const Allocation &allocation = *rows.allocation;
    const std::size_t bad = rows.logs->firstRejected();
    if (bad >= allocation.agents())
        return;
    CobbDouglasUtility(Vector(allocation.resources(), 1.0))
        .logValue(allocation.agentShare(bad));
    REF_PANIC("logValue accepted bundle " << bad);
}

/** An AgentList's rows: the copies an AgentRows view points into. */
class ListRows
{
  public:
    ListRows(const AgentList &agents, const Allocation &allocation)
        : allocation_(&allocation), logs_(allocation)
    {
        names_.reserve(agents.size());
        logScales_.reserve(agents.size());
        elasticities_.reserve(agents.size() * allocation.resources());
        for (const Agent &agent : agents) {
            names_.push_back(agent.name());
            const Vector &alphas = agent.utility().elasticities();
            elasticities_.insert(elasticities_.end(), alphas.begin(),
                                 alphas.end());
            logScales_.push_back(std::log(agent.utility().scale()));
        }
    }

    AgentRows view() const
    {
        return {allocation_, &logs_, names_.data(),
                elasticities_.data(), logScales_.data()};
    }

  private:
    const Allocation *allocation_;
    BundleLogs logs_;
    std::vector<std::string> names_;
    std::vector<double> elasticities_;
    std::vector<double> logScales_;
};

} // namespace

BundleLogs::BundleLogs(const Allocation &allocation)
    : resources_(allocation.resources()),
      logs_(allocation.agents() * resources_, 0.0),
      worthless_(allocation.agents(), 0),
      firstRejected_(allocation.agents())
{
    for (std::size_t j = allocation.agents(); j-- > 0;) {
        for (std::size_t r = 0; r < resources_; ++r) {
            const double amount = allocation.at(j, r);
            if (!(amount >= 0)) {
                firstRejected_ = j;
                break;
            }
            if (amount == 0) {
                worthless_[j] = 1;
                break;
            }
            logs_[j * resources_ + r] = std::log(amount);
        }
    }
}

double
BundleLogs::value(const double *alphas, double log_scale,
                  std::size_t j) const
{
    if (worthless_[j])
        return -kInfinity;
    double total = log_scale;
    const double *logs = &logs_[j * resources_];
    for (std::size_t r = 0; r < resources_; ++r)
        total += alphas[r] * logs[r];
    return total;
}

PropertyCheck
checkSharingIncentives(const AgentRows &rows,
                       const SystemCapacity &capacity,
                       const FairnessTolerance &tol,
                       std::vector<double> *label_slack)
{
    const Allocation &allocation = *rows.allocation;
    const std::size_t n = allocation.agents();
    const std::size_t resources = allocation.resources();
    REF_REQUIRE(n > 0, "no agents to check");
    REF_REQUIRE(capacity.count() == resources,
                "capacity/allocation resource mismatch");
    raiseRejected(rows);
    if (label_slack != nullptr)
        label_slack->assign(rows.labelCount, kInfinity);

    // log(C_r / N) once. logValue stops at a zero share and returns
    // -inf, so a zero equal share makes every split worthless.
    const Vector equal_share = capacity.equalShare(n);
    std::vector<double> split_logs(resources);
    bool split_worthless = false;
    for (std::size_t r = 0; r < resources && !split_worthless; ++r) {
        split_worthless = equal_share[r] == 0;
        split_logs[r] = std::log(equal_share[r]);
    }

    PropertyCheck check;
    check.worstSlack = kInfinity;
    check.satisfied = true;
    std::size_t binding = n;
    for (std::size_t i = 0; i < n; ++i) {
        const double *alphas = alphasOf(rows, i);
        const double log_scale = logScaleOf(rows, i);
        const double own = rows.logs->value(alphas, log_scale, i);
        // logValue(C/N): log(a0) + sum_r a_r log(C_r/N), left to
        // right, as BundleLogs::value sums the own bundle.
        double split = -kInfinity;
        if (!split_worthless) {
            split = log_scale;
            for (std::size_t r = 0; r < resources; ++r)
                split += alphas[r] * split_logs[r];
        }
        const double slack = own - split;
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            binding = i;
        }
        noteLabel(rows, label_slack, i, slack);
        if (slack < -tol.utility)
            check.satisfied = false;
    }
    if (binding < n) {
        std::ostringstream detail;
        detail << "agent '" << rows.names[binding]
               << "' vs equal split (log-utility slack "
               << check.worstSlack << ")";
        check.binding = detail.str();
    }
    return check;
}

PropertyCheck
checkSharingIncentives(const AgentList &agents,
                       const SystemCapacity &capacity,
                       const Allocation &allocation,
                       const FairnessTolerance &tol)
{
    requireShapes(agents, allocation);
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");
    return checkSharingIncentives(ListRows(agents, allocation).view(),
                                  capacity, tol);
}

PropertyCheck
checkEnvyFreenessPairwise(const AgentList &agents,
                          const Allocation &allocation,
                          const FairnessTolerance &tol)
{
    requireShapes(agents, allocation);

    PropertyCheck check;
    check.worstSlack = std::numeric_limits<double>::infinity();
    check.satisfied = true;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const auto &utility = agents[i].utility();
        const double own = utility.logValue(allocation.agentShare(i));
        for (std::size_t j = 0; j < agents.size(); ++j) {
            if (i == j)
                continue;
            const double other =
                utility.logValue(allocation.agentShare(j));
            // Both bundles worthless: no envy either way.
            double slack;
            if (std::isinf(own) && std::isinf(other)) {
                slack = 0;
            } else {
                slack = own - other;
            }
            if (slack < check.worstSlack) {
                check.worstSlack = slack;
                std::ostringstream detail;
                detail << "agent '" << agents[i].name()
                       << "' vs bundle of '" << agents[j].name()
                       << "' (log-utility slack " << slack << ")";
                check.binding = detail.str();
            }
            if (slack < -tol.utility)
                check.satisfied = false;
        }
    }
    return check;
}

namespace {

/** Unit round-off u = 2^-53 of binary64 round-to-nearest. */
constexpr double kUnitRoundoff = 0x1p-53;
/**
 * Elasticities the hull filter accepts. Inside this range every
 * product in its predicates stays a normal double, so the two-product
 * error terms below are exact; outside it the check scans every row.
 */
constexpr double kMinFilteredElasticity = 0x1p-600;
constexpr double kMaxFilteredElasticity = 0x1p600;

/**
 * The pairwise loop's running state, restricted to the rows scanned:
 * the first pair in row-major order that reaches the minimum, and
 * whether any pair broke the tolerance.
 */
struct EnvyScan
{
    double worst = kInfinity;
    std::size_t agent = 0;
    std::size_t rival = 0;
    bool hasBinding = false;
    bool satisfied = true;
    std::size_t rows = 0;
    /** Per-label minima to lower; null when none are wanted. */
    std::vector<double> *labelMinima = nullptr;
};

/** Every pair (i, j), j != i, with the pairwise loop's arithmetic;
 *  the row's minimum also lowers its label's. */
void
scanRow(const AgentRows &rows, const std::vector<double> &own,
        std::size_t i, const FairnessTolerance &tol, EnvyScan &scan)
{
    const double *alphas = alphasOf(rows, i);
    const double log_scale = logScaleOf(rows, i);
    const std::size_t n = rows.allocation->agents();
    double row_worst = kInfinity;
    for (std::size_t j = 0; j < n; ++j) {
        if (j == i)
            continue;
        const double other = rows.logs->value(alphas, log_scale, j);
        // Both bundles worthless: no envy either way.
        const double slack = std::isinf(own[i]) && std::isinf(other)
                                 ? 0.0
                                 : own[i] - other;
        row_worst = std::min(row_worst, slack);
        if (slack < scan.worst) {
            scan.worst = slack;
            scan.agent = i;
            scan.rival = j;
            scan.hasBinding = true;
        }
        if (slack < -tol.utility)
            scan.satisfied = false;
    }
    noteLabel(rows, scan.labelMinima, i, row_worst);
    ++scan.rows;
}

/** A bundle's point (log x_j0, log x_j1). */
struct LogPoint
{
    double x;
    double y;
};

/** The exact value of a*b as an unevaluated sum of two doubles. */
void
addProduct(ExactSum &sum, double a, double b)
{
    const double product = a * b;
    sum.add(product);
    sum.add(std::fma(a, b, -product));
}

/**
 * Sign of the orientation determinant (a - c) x (b - c): +1 when
 * a, b, c turn counter-clockwise, -1 clockwise, 0 collinear. Exact:
 * Shewchuk's orient2d filter settles almost every call in floating
 * point and the rest are summed exactly.
 */
int
orientation(const LogPoint &a, const LogPoint &b, const LogPoint &c)
{
    const double left = (a.x - c.x) * (b.y - c.y);
    const double right = (a.y - c.y) * (b.x - c.x);
    const double det = left - right;
    // Shewchuk's ccwerrboundA is (3 + 16u)u; 4u covers it.
    const double bound =
        4 * kUnitRoundoff * (std::abs(left) + std::abs(right));
    if (det > bound)
        return 1;
    if (-det > bound)
        return -1;
    // det = ax*by - ax*cy - cx*by - ay*bx + ay*cx + cy*bx exactly.
    ExactSum sum;
    addProduct(sum, a.x, b.y);
    addProduct(sum, -a.x, c.y);
    addProduct(sum, -c.x, b.y);
    addProduct(sum, -a.y, b.x);
    addProduct(sum, a.y, c.x);
    addProduct(sum, c.y, b.x);
    const double exact = sum.round();
    return (exact > 0) - (exact < 0);
}

/**
 * Sign of alpha . (p - q) = alpha0 (px - qx) + alpha1 (py - qy):
 * whether an agent with these elasticities values bundle p above,
 * level with, or below bundle q. Exact, with a floating-point filter:
 * the fast expression rounds five times (two differences, two
 * products, one sum), so its first-order error is 3u (|t0| + |t1|),
 * which the 4u bound covers.
 */
int
compareValue(double alpha0, double alpha1, const LogPoint &p,
             const LogPoint &q)
{
    const double t0 = alpha0 * (p.x - q.x);
    const double t1 = alpha1 * (p.y - q.y);
    const double diff = t0 + t1;
    const double bound =
        4 * kUnitRoundoff * (std::abs(t0) + std::abs(t1));
    if (diff > bound)
        return 1;
    if (-diff > bound)
        return -1;
    ExactSum sum;
    addProduct(sum, alpha0, p.x);
    addProduct(sum, -alpha0, q.x);
    addProduct(sum, alpha1, p.y);
    addProduct(sum, -alpha1, q.y);
    const double exact = sum.round();
    return (exact > 0) - (exact < 0);
}

constexpr std::size_t kNoRival = static_cast<std::size_t>(-1);

/**
 * One monotone-chain pass over the bundles in @p order. Before each
 * bundle joins, its own agent queries the upper hull of the bundles
 * already in, so the answer is that agent's exactly best rival among
 * them: with both elasticities positive, alpha . q is maximized on
 * the upper hull, and along it alpha . q rises then falls, so a
 * galloping binary search on compareValue finds the top. @p mirrored walks the
 * order backwards (x descending); the chain then keeps x strictly
 * decreasing and turns the other way.
 */
void
hullPass(const std::vector<std::array<double, 2>> &alphas,
         const std::vector<LogPoint> &points,
         const std::vector<std::size_t> &order, bool mirrored,
         std::vector<std::size_t> &rival)
{
    std::vector<std::size_t> chain;
    chain.reserve(order.size());
    const std::size_t n = order.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t j = mirrored ? order[n - 1 - k] : order[k];
        const LogPoint &point = points[j];
        if (!chain.empty()) {
            // The top is the first vertex k with value(k + 1) <=
            // value(k). Gallop back from the chain's end first: the
            // newest vertex is this bundle's neighbour in the sort
            // order, and for REF allocations (whose points all lie on
            // the hull) it is nearly always the answer.
            const auto [alpha0, alpha1] = alphas[j];
            const auto rises = [&](std::size_t k) {
                return compareValue(alpha0, alpha1,
                                    points[chain[k + 1]],
                                    points[chain[k]]) > 0;
            };
            std::size_t lo = 0;
            std::size_t hi = chain.size() - 1;
            for (std::size_t step = 1; hi > 0; step *= 2) {
                const std::size_t probe = hi > step ? hi - step : 0;
                if (rises(probe)) {
                    lo = probe + 1;
                    break;
                }
                hi = probe;
            }
            while (lo < hi) {
                const std::size_t mid = lo + (hi - lo) / 2;
                if (rises(mid))
                    lo = mid + 1;
                else
                    hi = mid;
            }
            rival[j] = chain[lo];
        }
        // Of bundles sharing an x, only the highest can top the hull.
        if (!chain.empty() && points[chain.back()].x == point.x) {
            if (mirrored)
                continue;  // y descends: the chain's end is higher.
            chain.pop_back();  // y ascends: this bundle replaces it.
        }
        const int keep = mirrored ? 1 : -1;
        while (chain.size() >= 2 &&
               orientation(points[chain[chain.size() - 2]],
                           points[chain.back()], point) != keep)
            chain.pop_back();
        chain.push_back(j);
    }
}

/** A bundle's place in the hull passes' (x, y, row) order. */
struct SortKey
{
    double x;
    double y;
    std::size_t j;
};

/** (x, y, row) lexicographically: a total order on the rows. */
bool
sortsBefore(const SortKey &a, const SortKey &b)
{
    if (a.x != b.x)
        return a.x < b.x;
    if (a.y != b.y)
        return a.y < b.y;
    return a.j < b.j;
}

/**
 * Insertion-sort @p keys, which start in the last check's order
 * over the same rows. REF moves every log amount of a resource by
 * the same shift when a few agents update, so only those agents'
 * keys are out of place, and each moves only as far as it must.
 * Gives up after N log2 N moves and returns false, the keys still a
 * permutation of the rows.
 */
bool
insertionSort(std::vector<SortKey> &keys)
{
    std::size_t budget = keys.size() * std::bit_width(keys.size());
    for (std::size_t i = 1; i < keys.size(); ++i) {
        const SortKey key = keys[i];
        std::size_t k = i;
        for (; k > 0 && budget > 0 && sortsBefore(key, keys[k - 1]);
             --k, --budget)
            keys[k] = keys[k - 1];
        keys[k] = key;
        if (budget == 0)
            return false;
    }
    return true;
}

/** True when @p order holds each of the rows 0..n-1 once. */
bool
isPermutation(const std::vector<std::size_t> &order, std::size_t n)
{
    if (order.size() != n)
        return false;
    std::vector<char> seen(n, 0);
    for (const std::size_t j : order) {
        if (j >= n || seen[j])
            return false;
        seen[j] = 1;
    }
    return true;
}

/**
 * The hull filter (R = 2, every amount positive and finite, every
 * elasticity inside the filtered range, N >= 2). For each agent i it
 * finds the rival whose bundle i values most, exactly, and from it
 * U_i, the computed slack against that rival. U = min_i U_i is the
 * computed slack of a real pair, so the global minimum is at most U;
 * row i's minimum is at least U_i - D_i, where D_i bounds the
 * rounding of logValue's expression and of the subtraction (see
 * DESIGN.md, "Checking EF near-linearly"). Returns the rows with
 * U_i - D_i <= U, in increasing order: the only ones that can hold
 * the global minimum. With @p labels, a labelled row i is measured
 * against its label's U_L = min over the label's rows of U_k
 * instead, a bound no lower than U: the rows kept then also include
 * every row that can hold its label's minimum.
 */
std::vector<std::size_t>
candidateRows(const AgentRows &rows, const std::vector<double> &own,
              std::vector<std::size_t> *hull_order,
              const std::uint32_t *labels)
{
    const BundleLogs &logs = *rows.logs;
    const std::size_t n = rows.allocation->agents();
    std::vector<LogPoint> points(n);
    std::vector<std::array<double, 2>> alphas(n);
    double reach0 = 0;
    double reach1 = 0;
    for (std::size_t j = 0; j < n; ++j) {
        points[j] = {logs.log(j, 0), logs.log(j, 1)};
        const double *elasticities = alphasOf(rows, j);
        alphas[j] = {elasticities[0], elasticities[1]};
        reach0 = std::max(reach0, std::abs(points[j].x));
        reach1 = std::max(reach1, std::abs(points[j].y));
    }
    // The keys start in the last check's order when the caller kept
    // one; sortsBefore is a total order, so the warm insertion sort
    // and std::sort reach the same permutation.
    const bool warm =
        hull_order != nullptr && isPermutation(*hull_order, n);
    std::vector<SortKey> keys(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t j = warm ? (*hull_order)[k] : k;
        keys[k] = {points[j].x, points[j].y, j};
    }
    if (!warm || !insertionSort(keys))
        std::sort(keys.begin(), keys.end(), sortsBefore);
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k)
        order[k] = keys[k].j;
    if (hull_order != nullptr)
        *hull_order = order;
    std::vector<std::size_t> before(n, kNoRival);
    std::vector<std::size_t> after(n, kNoRival);
    hullPass(alphas, points, order, false, before);
    hullPass(alphas, points, order, true, after);

    std::vector<double> upper(n);
    std::vector<double> margin(n);
    double global = kInfinity;
    for (std::size_t i = 0; i < n; ++i) {
        const double *elasticities = alphasOf(rows, i);
        const double log_scale = logScaleOf(rows, i);
        double best = -kInfinity;
        for (const std::size_t j : {before[i], after[i]})
            if (j != kNoRival)
                best = std::max(best,
                                logs.value(elasticities, log_scale, j));
        upper[i] = own[i] - best;
        global = std::min(global, upper[i]);
        // logValue rounds 4 times: |error| <= gamma_3 (|log a0| +
        // sum_r a_r |log x_jr|) for every j; 4u covers gamma_3 and
        // the rounding of this bound itself.
        const double value_error =
            4 * kUnitRoundoff *
            (std::abs(log_scale) + alphas[i][0] * reach0 +
             alphas[i][1] * reach1);
        margin[i] =
            2 * value_error + 4 * kUnitRoundoff * std::abs(upper[i]);
    }
    std::vector<double> label_upper;
    if (labels != nullptr) {
        label_upper.assign(rows.labelCount, kInfinity);
        for (std::size_t i = 0; i < n; ++i)
            if (labels[i] != kNoLabel)
                label_upper[labels[i]] =
                    std::min(label_upper[labels[i]], upper[i]);
    }
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < n; ++i) {
        const double bound = labels != nullptr && labels[i] != kNoLabel
                                 ? label_upper[labels[i]]
                                 : global;
        if (upper[i] - bound <= margin[i])
            candidates.push_back(i);
    }
    return candidates;
}

/** True when the hull filter's error analysis covers the inputs. */
bool
filterApplies(const AgentRows &rows)
{
    const Allocation &allocation = *rows.allocation;
    if (allocation.resources() != 2 || allocation.agents() < 2)
        return false;
    for (std::size_t j = 0; j < allocation.agents(); ++j) {
        for (std::size_t r = 0; r < 2; ++r) {
            const double amount = allocation.at(j, r);
            if (!(amount > 0) || !std::isfinite(amount))
                return false;
            const double alpha = alphasOf(rows, j)[r];
            if (alpha < kMinFilteredElasticity ||
                alpha > kMaxFilteredElasticity)
                return false;
        }
    }
    return true;
}

} // namespace

PropertyCheck
checkEnvyFreeness(const AgentRows &rows, const FairnessTolerance &tol,
                  EnvyCheckStats *stats,
                  std::vector<std::size_t> *hull_order,
                  std::vector<double> *label_slack)
{
    const std::size_t n = rows.allocation->agents();
    REF_REQUIRE(n > 0, "no agents to check");
    // The pairwise loop's first error is logValue's on the lowest
    // bundle it rejects (every bundle is evaluated by row 0 or is
    // row 0's own).
    raiseRejected(rows);
    std::vector<double> own(n);
    for (std::size_t i = 0; i < n; ++i)
        own[i] = rows.logs->value(alphasOf(rows, i), logScaleOf(rows, i),
                                  i);

    EnvyScan scan;
    scan.labelMinima = label_slack;
    if (label_slack != nullptr)
        label_slack->assign(rows.labelCount, kInfinity);
    if (filterApplies(rows)) {
        for (const std::size_t i : candidateRows(
                 rows, own, hull_order,
                 label_slack != nullptr ? rows.labels : nullptr))
            scanRow(rows, own, i, tol, scan);
    } else {
        if (hull_order != nullptr)
            hull_order->clear();
        for (std::size_t i = 0; i < n; ++i)
            scanRow(rows, own, i, tol, scan);
    }

    PropertyCheck check;
    check.worstSlack = scan.worst;
    check.satisfied = scan.satisfied;
    if (scan.hasBinding) {
        std::ostringstream detail;
        detail << "agent '" << rows.names[scan.agent]
               << "' vs bundle of '" << rows.names[scan.rival]
               << "' (log-utility slack " << scan.worst << ")";
        check.binding = detail.str();
    }
    if (stats != nullptr)
        stats->rowsScanned = scan.rows;
    return check;
}

PropertyCheck
checkEnvyFreeness(const AgentList &agents, const Allocation &allocation,
                  const FairnessTolerance &tol, EnvyCheckStats *stats)
{
    requireShapes(agents, allocation);
    return checkEnvyFreeness(ListRows(agents, allocation).view(), tol,
                             stats);
}

PropertyCheck
checkParetoEfficiency(const AgentList &agents,
                      const SystemCapacity &capacity,
                      const Allocation &allocation,
                      const FairnessTolerance &tol)
{
    requireShapes(agents, allocation);
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");

    PropertyCheck check;
    check.satisfied = true;
    check.worstSlack = std::numeric_limits<double>::infinity();

    // (a) No resource may be left on the table: a Cobb-Douglas agent
    // always benefits from more of any resource.
    const Vector sums = allocation.totals();
    for (std::size_t r = 0; r < capacity.count(); ++r) {
        const double cap = capacity.capacity(r);
        const double slack_frac = (cap - sums[r]) / cap;
        const double slack = -slack_frac;  // negative when wasteful
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            std::ostringstream detail;
            detail << "resource '" << capacity.resource(r).name
                   << "' leaves " << slack_frac * 100
                   << "% of capacity unallocated";
            check.binding = detail.str();
        }
        if (slack_frac > tol.capacity + tol.mrs)
            check.satisfied = false;
    }

    // (b) Interior tangency: all agents' MRS agree (Eq. 10). A zero
    // amount makes the MRS undefined; such corner allocations are
    // reported as not PE (see header).
    for (std::size_t i = 0; i < agents.size(); ++i) {
        for (std::size_t r = 0; r < allocation.resources(); ++r) {
            if (allocation.at(i, r) <= 0) {
                check.satisfied = false;
                std::ostringstream detail;
                detail << "agent '" << agents[i].name()
                       << "' holds none of resource '"
                       << capacity.resource(r).name << "'";
                check.binding = detail.str();
                check.worstSlack =
                    -std::numeric_limits<double>::infinity();
                return check;
            }
        }
    }

    for (std::size_t r = 1; r < allocation.resources(); ++r) {
        const double reference_mrs =
            agents[0].utility().marginalRateOfSubstitution(
                r, 0, allocation.agentShare(0));
        for (std::size_t i = 1; i < agents.size(); ++i) {
            const double mrs =
                agents[i].utility().marginalRateOfSubstitution(
                    r, 0, allocation.agentShare(i));
            const double mismatch =
                std::abs(std::log(mrs) - std::log(reference_mrs));
            const double slack = tol.mrs - mismatch;
            if (slack < check.worstSlack) {
                check.worstSlack = slack;
                std::ostringstream detail;
                detail << "MRS(" << capacity.resource(r).name << "/"
                       << capacity.resource(0).name << ") of '"
                       << agents[i].name() << "' differs from '"
                       << agents[0].name() << "' by factor "
                       << std::exp(mismatch);
                check.binding = detail.str();
            }
            if (mismatch > tol.mrs)
                check.satisfied = false;
        }
    }
    return check;
}

PropertyCheck
checkCapacity(const SystemCapacity &capacity,
              const Allocation &allocation, const FairnessTolerance &tol)
{
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");

    PropertyCheck check;
    check.satisfied = true;
    check.worstSlack = std::numeric_limits<double>::infinity();

    for (std::size_t i = 0; i < allocation.agents(); ++i) {
        for (std::size_t r = 0; r < allocation.resources(); ++r) {
            if (allocation.at(i, r) < 0) {
                check.satisfied = false;
                check.worstSlack = allocation.at(i, r);
                check.binding = "negative amount";
                return check;
            }
        }
    }

    const Vector sums = allocation.totals();
    for (std::size_t r = 0; r < capacity.count(); ++r) {
        const double cap = capacity.capacity(r);
        const double slack = (cap - sums[r]) / cap;
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            std::ostringstream detail;
            detail << "resource '" << capacity.resource(r).name
                   << "' allocated " << sums[r] << " of " << cap;
            check.binding = detail.str();
        }
        if (slack < -tol.capacity)
            check.satisfied = false;
    }
    return check;
}

FairnessReport
checkFairness(const AgentList &agents, const SystemCapacity &capacity,
              const Allocation &allocation, const FairnessTolerance &tol)
{
    FairnessReport report;
    report.sharingIncentives =
        checkSharingIncentives(agents, capacity, allocation, tol);
    report.envyFreeness = checkEnvyFreeness(agents, allocation, tol);
    report.paretoEfficiency =
        checkParetoEfficiency(agents, capacity, allocation, tol);
    report.capacity = checkCapacity(capacity, allocation, tol);
    return report;
}

} // namespace ref::core

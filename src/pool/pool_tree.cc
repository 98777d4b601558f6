#include "pool_tree.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace ref::pool {

PoolTree::PoolTree(core::SystemCapacity capacity)
    : capacity_(std::move(capacity))
{
    Node root;
    root.path = kRootPath;
    subtree_.resize(capacity_.count());
    scratch_.resize(capacity_.count());
    nodeIndex_.emplace(root.path, 0);
    nodes_.push_back(std::move(root));
}

void
PoolTree::validatePath(const std::string &path)
{
    REF_REQUIRE(!path.empty(), "pool path must not be empty");
    REF_REQUIRE(path.size() <= kMaxPoolPathLength,
                "pool path exceeds " << kMaxPoolPathLength
                                     << " characters");
    if (path == kRootPath)
        return;
    REF_REQUIRE(path != "_total",
                "pool path '_total' is reserved for the global "
                "fairness series");
    REF_REQUIRE(path.front() != '/' && path.back() != '/',
                "pool path '" << path
                              << "' must not start or end with '/'");
    std::size_t segment = 0;
    std::size_t depth = 1;
    for (char c : path) {
        if (c == '/') {
            REF_REQUIRE(segment > 0, "pool path '"
                                         << path
                                         << "' has an empty segment");
            segment = 0;
            ++depth;
            continue;
        }
        const auto uc = static_cast<unsigned char>(c);
        REF_REQUIRE(std::isprint(uc) && !std::isspace(uc),
                    "pool path '" << path
                                  << "' contains whitespace or "
                                     "non-printable characters");
        // Paths become CSV cells and metric label values verbatim;
        // keep the characters those syntaxes reserve out entirely.
        REF_REQUIRE(c != ',' && c != '"' && c != '\\' && c != '{' &&
                        c != '}' && c != '=',
                    "pool path '" << path << "' contains '" << c
                                  << "', reserved for exports");
        ++segment;
    }
    REF_REQUIRE(depth <= kMaxPoolDepth,
                "pool path '" << path << "' exceeds the maximum "
                              << "depth of " << kMaxPoolDepth);
}

void
PoolTree::createPool(const std::string &path, double weight,
                     std::uint64_t epoch)
{
    validatePath(path);
    REF_REQUIRE(std::isfinite(weight) && weight > 0,
                "pool '" << path << "' weight " << weight
                         << " must be positive and finite");
    const auto found = nodeIndex_.find(path);
    if (found != nodeIndex_.end()) {
        // Idempotent re-create: racing clients and journal replays
        // that repeat the same CREATE converge instead of erroring.
        REF_REQUIRE(nodes_[found->second].weight == weight,
                    "pool '" << path << "' already exists with weight "
                             << nodes_[found->second].weight);
        return;
    }
    REF_REQUIRE(path != kRootPath, "the root pool always exists");

    const std::size_t slash = path.rfind('/');
    const std::string parentPath =
        slash == std::string::npos ? kRootPath : path.substr(0, slash);
    const auto parent = nodeIndex_.find(parentPath);
    REF_REQUIRE(parent != nodeIndex_.end(),
                "pool '" << path << "' needs parent '" << parentPath
                         << "' to exist first");

    Node node;
    node.path = path;
    node.parent = parent->second;
    node.weight = weight;
    node.gain = nodes_[parent->second].gain * weight;
    node.depth = nodes_[parent->second].depth + 1;
    node.createdEpoch = epoch;
    REF_REQUIRE(std::isfinite(node.gain) && node.gain > 0,
                "pool '" << path << "' cumulative gain " << node.gain
                         << " is out of range");
    nodeIndex_.emplace(path, static_cast<std::uint32_t>(nodes_.size()));
    maxDepth_ = std::max<std::size_t>(maxDepth_, node.depth);
    nodes_.push_back(std::move(node));
    subtree_.resize(subtree_.size() + capacity_.count());
    ++churnEvents_;
}

bool
PoolTree::hasPool(const std::string &path) const
{
    return nodeIndex_.find(path) != nodeIndex_.end();
}

std::uint32_t
PoolTree::resolve(const std::string &path) const
{
    const auto found = nodeIndex_.find(path);
    REF_REQUIRE(found != nodeIndex_.end(),
                "pool '" << path << "' does not exist");
    return found->second;
}

void
PoolTree::validateAgent(const std::string &name,
                        const linalg::Vector &elasticities) const
{
    REF_REQUIRE(!name.empty(), "agent name must not be empty");
    for (char c : name) {
        REF_REQUIRE(!std::isspace(static_cast<unsigned char>(c)),
                    "agent name '" << name
                                   << "' must not contain whitespace");
    }
    REF_REQUIRE(elasticities.size() == capacity_.count(),
                "agent '" << name << "' reports "
                          << elasticities.size()
                          << " elasticities, system has "
                          << capacity_.count() << " resources");
    for (std::size_t r = 0; r < elasticities.size(); ++r) {
        REF_REQUIRE(std::isfinite(elasticities[r]) &&
                        elasticities[r] > 0,
                    "agent '" << name << "' reports elasticity "
                              << elasticities[r] << " for resource "
                              << r
                              << "; elasticities must be positive "
                                 "and finite");
    }
}

std::uint32_t
PoolTree::slotOf(const std::string &name) const
{
    const auto found = slotOf_.find(name);
    REF_REQUIRE(found != slotOf_.end(),
                "agent '" << name << "' is not registered");
    return found->second;
}

AgentRef
PoolTree::agentAt(std::uint32_t slot) const
{
    return {names_[slot]->first,
            {reportedAt(slot), capacity_.count()},
            seqs_[slot],
            pools_[slot],
            admittedEpochs_[slot]};
}

AgentRef
PoolTree::agent(const std::string &name) const
{
    return agentAt(slotOf(name));
}

void
PoolTree::rescale(const double *reported, std::uint32_t pool)
{
    normalizeToUnitSum({reported, capacity_.count()}, scratch_.data());
    // gain == 1.0 multiplies exactly, so unweighted trees keep
    // effective bit-identical to the rescaled values.
    const double gain = nodes_[pool].gain;
    for (double &value : scratch_)
        value = gain * value;
}

void
PoolTree::applyAlongPath(std::uint32_t pool, const double *effective,
                         int direction)
{
    if (direction > 0)
        ++nodes_[pool].directAgents;
    else
        --nodes_[pool].directAgents;
    for (std::uint32_t node = pool;; node = nodes_[node].parent) {
        Node &at = nodes_[node];
        ExactSum *sums = subtree(node);
        for (std::size_t r = 0; r < capacity_.count(); ++r) {
            if (direction > 0)
                sums[r].add(effective[r]);
            else
                sums[r].subtract(effective[r]);
        }
        if (direction > 0)
            ++at.agentsInSubtree;
        else
            --at.agentsInSubtree;
        if (node == 0)
            break;
    }
}

void
PoolTree::admit(const std::string &name,
                const linalg::Vector &elasticities,
                const std::string &poolPath, std::uint64_t epoch)
{
    validateAgent(name, elasticities);
    REF_REQUIRE(!contains(name),
                "agent '" << name << "' is already registered");
    const std::uint32_t pool = resolve(poolPath);
    rescale(elasticities.data(), pool);

    applyAlongPath(pool, scratch_.data(), +1);
    const auto slot = static_cast<std::uint32_t>(names_.size());
    if (slot == names_.capacity())
        growSlots();
    names_.push_back(&*slotOf_.emplace(name, slot).first);
    seqs_.push_back(nextSeq_++);
    admittedEpochs_.push_back(epoch);
    pools_.push_back(pool);
    reported_.insert(reported_.end(), elasticities.begin(),
                     elasticities.end());
    effective_.insert(effective_.end(), scratch_.begin(),
                      scratch_.end());
    if (!cohortOf_.empty())
        cohortOf_.push_back(nullptr);
    ++churnEvents_;
}

void
PoolTree::update(const std::string &name,
                 const linalg::Vector &elasticities)
{
    validateAgent(name, elasticities);
    const std::uint32_t slot = slotOf(name);
    rescale(elasticities.data(), pools_[slot]);
    double *effective = effectiveAt(slot);
    applyAlongPath(pools_[slot], effective, -1);
    applyAlongPath(pools_[slot], scratch_.data(), +1);
    std::copy(elasticities.begin(), elasticities.end(),
              reportedAt(slot));
    std::copy(scratch_.begin(), scratch_.end(), effective);
    ++churnEvents_;
}

void
PoolTree::assign(const std::string &name, const std::string &poolPath)
{
    const std::uint32_t pool = resolve(poolPath);
    const std::uint32_t slot = slotOf(name);
    if (pools_[slot] == pool)
        return; // Idempotent: already resident.

    rescale(reportedAt(slot), pool);
    double *effective = effectiveAt(slot);
    applyAlongPath(pools_[slot], effective, -1);
    applyAlongPath(pool, scratch_.data(), +1);
    pools_[slot] = pool;
    std::copy(scratch_.begin(), scratch_.end(), effective);
    ++churnEvents_;
}

void
PoolTree::depart(const std::string &name)
{
    const std::uint32_t slot = slotOf(name);
    applyAlongPath(pools_[slot], effectiveAt(slot), -1);
    leaveCohort(slot);
    names_[slot] = nullptr;
    slotOf_.erase(name);
    // Holes stay under a quarter of the live agents: at most
    // 1.25 x size() + 1 slots, and a compaction (O(slots)) comes at
    // least size() / 4 departures after the last one.
    if (4 * ++holes_ > slotOf_.size())
        compact();
    ++churnEvents_;
}

void
PoolTree::growSlots()
{
    // A quarter more each time, not the library's doubling: at ~60
    // bytes a slot, doubling can leave nearly half the arrays
    // unused. Growth copies each slot about four times on average,
    // so admission stays amortised O(1).
    const std::size_t slots = names_.size() + names_.size() / 4 + 64;
    names_.reserve(slots);
    seqs_.reserve(slots);
    admittedEpochs_.reserve(slots);
    pools_.reserve(slots);
    reported_.reserve(slots * capacity_.count());
    effective_.reserve(slots * capacity_.count());
    if (!cohortOf_.empty())
        cohortOf_.reserve(slots);
}

void
PoolTree::compact()
{
    const std::size_t resources = capacity_.count();
    const bool labelled = !cohortOf_.empty();
    std::uint32_t kept = 0;
    for (std::uint32_t slot = 0; slot < names_.size(); ++slot) {
        if (names_[slot] == nullptr)
            continue;
        if (kept != slot) {
            names_[kept] = names_[slot];
            names_[kept]->second = kept;
            seqs_[kept] = seqs_[slot];
            admittedEpochs_[kept] = admittedEpochs_[slot];
            pools_[kept] = pools_[slot];
            std::copy_n(&reported_[slot * resources], resources,
                        &reported_[kept * resources]);
            std::copy_n(&effective_[slot * resources], resources,
                        &effective_[kept * resources]);
            if (labelled)
                cohortOf_[kept] = cohortOf_[slot];
        }
        ++kept;
    }
    names_.resize(kept);
    seqs_.resize(kept);
    admittedEpochs_.resize(kept);
    pools_.resize(kept);
    reported_.resize(kept * resources);
    effective_.resize(kept * resources);
    if (labelled)
        cohortOf_.resize(kept);
    holes_ = 0;
}

void
PoolTree::setCohort(const std::string &name, const std::string &label)
{
    const std::uint32_t slot = slotOf(name);
    const auto entry = cohorts_.try_emplace(label).first;
    ++entry->second.members;
    leaveCohort(slot);
    if (cohortOf_.empty())
        cohortOf_.resize(names_.size(), nullptr);
    cohortOf_[slot] = &*entry;
}

void
PoolTree::leaveCohort(std::uint32_t slot)
{
    if (cohortOf_.empty() || cohortOf_[slot] == nullptr)
        return;
    const auto entry = cohorts_.find(cohortOf_[slot]->first);
    if (--entry->second.members == 0)
        cohorts_.erase(entry);
    cohortOf_[slot] = nullptr;
    if (cohorts_.empty())
        cohortOf_.clear();
}

bool
PoolTree::contains(const std::string &name) const
{
    return slotOf_.find(name) != slotOf_.end();
}

const std::string &
PoolTree::poolOf(const std::string &name) const
{
    return nodes_[pools_[slotOf(name)]].path;
}

double
PoolTree::denominator(std::size_t r) const
{
    return subtree(0)[r].round();
}

linalg::Vector
PoolTree::sharesOf(const std::string &name) const
{
    const double *effective = effectiveAt(slotOf(name));
    linalg::Vector shares(capacity_.count());
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        const double d = denominator(r);
        REF_ASSERT(d > 0,
                   "effective claims sum to zero for resource " << r);
        shares[r] = effective[r] / d * capacity_.capacity(r);
    }
    return shares;
}

linalg::Vector
PoolTree::poolShareFractions(const std::string &path) const
{
    const ExactSum *node = subtree(resolve(path));
    linalg::Vector fractions(capacity_.count(), 0.0);
    if (empty())
        return fractions;
    const std::vector<double> sums = denominators();
    for (std::size_t r = 0; r < capacity_.count(); ++r)
        fractions[r] = node[r].round() / sums[r];
    return fractions;
}

void
PoolTree::poolShareFractions(std::vector<double> &out) const
{
    const std::size_t resources = capacity_.count();
    out.assign(subtree_.size(), 0.0);
    if (empty())
        return;
    const std::vector<double> sums = denominators();
    for (std::size_t i = 0; i < subtree_.size(); ++i)
        out[i] = subtree_[i].round() / sums[i % resources];
}

std::vector<PoolView>
PoolTree::pools() const
{
    std::vector<PoolView> views;
    views.reserve(nodes_.size());
    for (const Node &node : nodes_) {
        PoolView view;
        view.path = node.path;
        view.weight = node.weight;
        view.gain = node.gain;
        view.agents = node.agentsInSubtree;
        view.directAgents = node.directAgents;
        view.createdEpoch = node.createdEpoch;
        views.push_back(std::move(view));
    }
    return views;
}

core::AgentList
DenseRows::agentList() const
{
    const std::size_t resources = allocation.resources();
    core::AgentList agents;
    agents.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const double *alphas = &elasticities[i * resources];
        agents.emplace_back(names[i],
                            core::CobbDouglasUtility(linalg::Vector(
                                alphas, alphas + resources)));
    }
    return agents;
}

std::vector<double>
PoolTree::denominators() const
{
    REF_REQUIRE(!empty(), "no agents to allocate to");
    std::vector<double> sums(capacity_.count());
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        sums[r] = denominator(r);
        REF_ASSERT(sums[r] > 0,
                   "effective claims sum to zero for resource " << r);
    }
    return sums;
}

core::Allocation
PoolTree::allocateDense() const
{
    return allocateWith(denominators());
}

void
PoolTree::allocateDense(DenseRows &rows) const
{
    rows.cohorts.clear();
    for (const auto &[label, cohort] : cohorts_) {
        cohort.id = static_cast<std::uint32_t>(rows.cohorts.size());
        rows.cohorts.emplace_back(label, cohort.members);
    }
    rows.allocation = allocateWith(denominators(), &rows);
    rows.logs = core::BundleLogs(rows.allocation);
}

core::Allocation
PoolTree::allocateWith(const std::vector<double> &denominators,
                       DenseRows *rows) const
{
    REF_REQUIRE(!empty(), "no agents to allocate to");
    const std::size_t resources = capacity_.count();
    const std::size_t count = size();
    core::Allocation allocation(count, resources);
    const bool labelled = rows != nullptr && !cohorts_.empty();
    if (rows != nullptr) {
        rows->names.clear();
        rows->names.reserve(count);
        rows->seqs.clear();
        rows->seqs.reserve(count);
        rows->elasticities.clear();
        rows->elasticities.reserve(count * resources);
        rows->labels.clear();
        if (labelled)
            rows->labels.reserve(count);
    }
    std::size_t i = 0;
    for (std::uint32_t slot = 0; slot < names_.size(); ++slot) {
        if (names_[slot] == nullptr)
            continue;
        // The closed form's own expression, applied to the same
        // doubles: with unit gains the exact denominators make this
        // bit-identical to ProportionalElasticityMechanism.
        const double *effective = effectiveAt(slot);
        for (std::size_t r = 0; r < resources; ++r)
            allocation.at(i, r) = effective[r] / denominators[r] *
                                  capacity_.capacity(r);
        if (rows != nullptr) {
            rows->names.push_back(names_[slot]->first);
            rows->seqs.push_back(seqs_[slot]);
            const double *reported = reportedAt(slot);
            rows->elasticities.insert(rows->elasticities.end(),
                                      reported, reported + resources);
            if (labelled)
                rows->labels.push_back(cohortOf_[slot] != nullptr
                                           ? cohortOf_[slot]->second.id
                                           : core::kNoLabel);
        }
        ++i;
    }
    return allocation;
}

bool
PoolTree::selfCheck() const
{
    const std::size_t resources = capacity_.count();
    std::vector<double> scratchDenominators(resources);
    for (std::size_t r = 0; r < resources; ++r) {
        // Rebuild over the slots: ExactSum's order-independence makes
        // this round identically to the incrementally maintained root
        // sums, which saw the claims in churn order.
        ExactSum scratch;
        for (std::uint32_t slot = 0; slot < names_.size(); ++slot)
            if (names_[slot] != nullptr)
                scratch.add(effective_[slot * resources + r]);
        scratchDenominators[r] = scratch.round();
        if (denominator(r) != scratchDenominators[r])
            return false;
    }
    if (empty())
        return true;

    const core::Allocation fast = allocateDense();
    const core::Allocation slow = allocateWith(scratchDenominators);
    if (fast.agents() != slow.agents() ||
        fast.resources() != slow.resources())
        return false;
    for (std::size_t i = 0; i < fast.agents(); ++i)
        for (std::size_t r = 0; r < fast.resources(); ++r)
            if (fast.at(i, r) != slow.at(i, r))
                return false;
    return true;
}

bool
PoolTree::allUnitGains() const
{
    for (const Node &node : nodes_)
        if (node.gain != 1.0)
            return false;
    return true;
}

} // namespace ref::pool

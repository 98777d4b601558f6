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
    root.subtree.resize(capacity_.count());
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
    node.subtree.resize(capacity_.count());
    REF_REQUIRE(std::isfinite(node.gain) && node.gain > 0,
                "pool '" << path << "' cumulative gain " << node.gain
                         << " is out of range");
    nodeIndex_.emplace(path, static_cast<std::uint32_t>(nodes_.size()));
    maxDepth_ = std::max<std::size_t>(maxDepth_, node.depth);
    nodes_.push_back(std::move(node));
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

PooledAgent &
PoolTree::entryOf(const std::string &name)
{
    return const_cast<PooledAgent &>(agent(name));
}

const PooledAgent &
PoolTree::agent(const std::string &name) const
{
    const auto found = agents_.find(name);
    REF_REQUIRE(found != agents_.end(),
                "agent '" << name << "' is not registered");
    return found->second;
}

linalg::Vector
PoolTree::effectiveFor(const linalg::Vector &rescaled,
                       std::uint32_t pool) const
{
    // gain == 1.0 multiplies exactly, so unweighted trees keep
    // effective bit-identical to the rescaled values.
    const double gain = nodes_[pool].gain;
    linalg::Vector effective(rescaled.size());
    for (std::size_t r = 0; r < rescaled.size(); ++r)
        effective[r] = gain * rescaled[r];
    return effective;
}

void
PoolTree::applyAlongPath(std::uint32_t pool,
                         const linalg::Vector &effective, int direction)
{
    if (direction > 0)
        ++nodes_[pool].directAgents;
    else
        --nodes_[pool].directAgents;
    for (std::uint32_t node = pool;; node = nodes_[node].parent) {
        Node &at = nodes_[node];
        for (std::size_t r = 0; r < effective.size(); ++r) {
            if (direction > 0)
                at.subtree[r].add(effective[r]);
            else
                at.subtree[r].subtract(effective[r]);
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

    PooledAgent agent;
    agent.name = name;
    agent.elasticities = elasticities;
    agent.rescaled = normalizeToUnitSum(elasticities);
    agent.effective = effectiveFor(agent.rescaled, pool);
    agent.admittedEpoch = epoch;
    agent.seq = nextSeq_++;
    agent.pool = pool;

    applyAlongPath(pool, agent.effective, +1);
    const auto placed = agents_.emplace(name, std::move(agent));
    order_.emplace_back(placed.first->second.seq,
                        &placed.first->second);
    ++churnEvents_;
}

void
PoolTree::update(const std::string &name,
                 const linalg::Vector &elasticities)
{
    validateAgent(name, elasticities);
    PooledAgent &agent = entryOf(name);
    const linalg::Vector rescaled = normalizeToUnitSum(elasticities);
    const linalg::Vector effective = effectiveFor(rescaled, agent.pool);
    applyAlongPath(agent.pool, agent.effective, -1);
    applyAlongPath(agent.pool, effective, +1);
    agent.elasticities = elasticities;
    agent.rescaled = rescaled;
    agent.effective = effective;
    ++churnEvents_;
}

void
PoolTree::assign(const std::string &name, const std::string &poolPath)
{
    const std::uint32_t pool = resolve(poolPath);
    PooledAgent &agent = entryOf(name);
    if (agent.pool == pool)
        return; // Idempotent: already resident.

    const linalg::Vector effective = effectiveFor(agent.rescaled, pool);
    applyAlongPath(agent.pool, agent.effective, -1);
    applyAlongPath(pool, effective, +1);
    agent.pool = pool;
    agent.effective = effective;
    ++churnEvents_;
}

void
PoolTree::depart(const std::string &name)
{
    PooledAgent &agent = entryOf(name);
    applyAlongPath(agent.pool, agent.effective, -1);
    const auto slot = std::lower_bound(
        order_.begin(), order_.end(), agent.seq,
        [](const auto &entry, std::uint64_t seq) {
            return entry.first < seq;
        });
    slot->second = nullptr;
    if (++holes_ > agents_.size()) {
        std::erase_if(order_, [](const auto &entry) {
            return entry.second == nullptr;
        });
        holes_ = 0;
    }
    leaveCohort(agent);
    agents_.erase(name);
    ++churnEvents_;
}

void
PoolTree::setCohort(const std::string &name, const std::string &label)
{
    PooledAgent &agent = entryOf(name);
    const auto entry = cohorts_.try_emplace(label).first;
    ++entry->second.members;
    leaveCohort(agent);
    agent.cohort = &*entry;
}

void
PoolTree::leaveCohort(PooledAgent &agent)
{
    if (agent.cohort == nullptr)
        return;
    const auto entry = cohorts_.find(agent.cohort->first);
    if (--entry->second.members == 0)
        cohorts_.erase(entry);
    agent.cohort = nullptr;
}

bool
PoolTree::contains(const std::string &name) const
{
    return agents_.find(name) != agents_.end();
}

const std::string &
PoolTree::poolOf(const std::string &name) const
{
    return nodes_[agent(name).pool].path;
}

double
PoolTree::denominator(std::size_t r) const
{
    return nodes_[0].subtree[r].round();
}

linalg::Vector
PoolTree::sharesOf(const std::string &name) const
{
    const PooledAgent &entry = agent(name);
    linalg::Vector shares(capacity_.count());
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        const double d = denominator(r);
        REF_ASSERT(d > 0,
                   "effective claims sum to zero for resource " << r);
        shares[r] = entry.effective[r] / d * capacity_.capacity(r);
    }
    return shares;
}

linalg::Vector
PoolTree::poolShareFractions(const std::string &path) const
{
    const Node &node = nodes_[resolve(path)];
    linalg::Vector fractions(capacity_.count(), 0.0);
    if (empty())
        return fractions;
    const std::vector<double> sums = denominators();
    for (std::size_t r = 0; r < capacity_.count(); ++r)
        fractions[r] = node.subtree[r].round() / sums[r];
    return fractions;
}

void
PoolTree::poolShareFractions(std::vector<double> &out) const
{
    const std::size_t resources = capacity_.count();
    out.assign(nodes_.size() * resources, 0.0);
    if (empty())
        return;
    const std::vector<double> sums = denominators();
    double *fraction = out.data();
    for (const Node &node : nodes_)
        for (std::size_t r = 0; r < resources; ++r)
            *fraction++ = node.subtree[r].round() / sums[r];
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

std::vector<const PooledAgent *>
PoolTree::denseOrder() const
{
    std::vector<const PooledAgent *> order;
    order.reserve(agents_.size());
    for (const auto &entry : order_)
        if (entry.second != nullptr)
            order.push_back(entry.second);
    return order;
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
    const std::size_t count = agents_.size();
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
    for (const auto &[seq, slot] : order_) {
        if (slot == nullptr)
            continue;
        const PooledAgent &entry = *slot;
        // The closed form's own expression, applied to the same
        // doubles: with unit gains the exact denominators make this
        // bit-identical to ProportionalElasticityMechanism.
        for (std::size_t r = 0; r < resources; ++r)
            allocation.at(i, r) = entry.effective[r] / denominators[r] *
                                  capacity_.capacity(r);
        if (rows != nullptr) {
            rows->names.push_back(entry.name);
            rows->seqs.push_back(seq);
            rows->elasticities.insert(rows->elasticities.end(),
                                      entry.elasticities.begin(),
                                      entry.elasticities.end());
            if (labelled)
                rows->labels.push_back(entry.cohort != nullptr
                                           ? entry.cohort->second.id
                                           : core::kNoLabel);
        }
        ++i;
    }
    return allocation;
}

bool
PoolTree::selfCheck() const
{
    std::vector<double> scratchDenominators(capacity_.count());
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        // Rebuild in arbitrary (hash) order: ExactSum's
        // order-independence makes this round identically to the
        // incrementally maintained root sums.
        ExactSum scratch;
        for (const auto &entry : agents_)
            scratch.add(entry.second.effective[r]);
        scratchDenominators[r] = scratch.round();
        if (nodes_[0].subtree[r].round() != scratchDenominators[r])
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

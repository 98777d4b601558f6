#include "workload.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace refbench {

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

namespace {

/** Independent generator per (seed, purpose). */
Rng
derive(std::uint64_t seed, std::uint64_t salt)
{
    Rng mixer(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    return Rng(mixer.next());
}

constexpr std::uint64_t kPreloadSalt = 1;
constexpr std::uint64_t kStreamSalt = 100;

// flat_epoch: one connection repeating 16 UPDATE, TICK, 16 QUERY.
constexpr std::uint64_t kFlatUpdates = 16;
constexpr std::uint64_t kFlatCycle = 2 * kFlatUpdates + 1;
// pooled_churn: connection 0 sends every 200th command as a TICK.
constexpr std::uint64_t kPooledTickEvery = 200;
// Departs stop below this many owned agents, so the population and
// the per-TICK state hash stay the same size for the whole run.
constexpr std::size_t kPooledMinOwned = 1000;

std::string
formatElasticities(Rng &rng)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.4f %.4f",
                  0.05 + 0.9 * rng.unit(), 0.05 + 0.9 * rng.unit());
    return buffer;
}

std::string
poolPath(std::size_t index)
{
    return "p" + std::to_string(index);
}

} // namespace

std::size_t
zipfIndex(std::size_t n, double unit)
{
    double total = 0;
    for (std::size_t k = 1; k <= n; ++k)
        total += 1.0 / static_cast<double>(k);
    double cumulative = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        cumulative += 1.0 / static_cast<double>(k) / total;
        if (unit < cumulative)
            return k - 1;
    }
    return n - 1;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        WorkloadSpec flat;
        flat.name = "flat_epoch";
        flat.connections = 1;
        flat.preloadAgents = 1024;
        flat.replayCommands = 40 * kFlatCycle;

        WorkloadSpec pooled;
        pooled.name = "pooled_churn";
        pooled.pooled = true;
        pooled.connections = 2;
        pooled.preloadAgents = 20000;
        pooled.pools = 64;
        pooled.groupBytes = 65536;
        pooled.groupUsec = 2000;
        pooled.replayCommands = 6000;
        return std::vector<WorkloadSpec>{flat, pooled};
    }();
    return specs;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string>
serverArgs(const WorkloadSpec &spec, bool durable)
{
    std::vector<std::string> args;
    if (spec.pooled)
        args.push_back("--pooled");
    if (durable && hasDurabilityCheck(spec))
        args.insert(args.end(),
                    {"--fsync-policy",
                     "group:" + std::to_string(spec.groupBytes) + "," +
                         std::to_string(spec.groupUsec)});
    return args;
}

std::vector<std::string>
preloadAgents(const WorkloadSpec &spec)
{
    std::vector<std::string> names;
    names.reserve(spec.preloadAgents);
    const char *prefix = spec.pooled ? "g" : "a";
    for (std::size_t i = 0; i < spec.preloadAgents; ++i)
        names.push_back(prefix + std::to_string(i));
    return names;
}

std::vector<std::string>
preloadLines(const WorkloadSpec &spec, std::uint64_t seed)
{
    Rng rng = derive(seed, kPreloadSalt);
    std::vector<std::string> lines;
    for (std::size_t p = 0; p < spec.pools; ++p)
        lines.push_back("POOL CREATE " + poolPath(p));
    for (const std::string &name : preloadAgents(spec)) {
        lines.push_back("ADMIT " + name + " " + formatElasticities(rng));
        if (spec.pooled)
            lines.push_back("POOL ASSIGN " + name + " " +
                            poolPath(zipfIndex(spec.pools, rng.unit())));
    }
    return lines;
}

Stream::Stream(const WorkloadSpec &spec, std::uint64_t seed,
               std::size_t connection)
    : spec_(spec), connection_(connection),
      rng_(derive(seed, kStreamSalt + connection))
{
    const std::vector<std::string> names = preloadAgents(spec);
    for (std::size_t i = 0; i < names.size(); ++i)
        if (!spec.pooled || i % spec.connections == connection)
            live_.push_back(names[i]);
}

std::string
Stream::pickLive()
{
    return live_[rng_.below(live_.size())];
}

std::string
Stream::elasticities()
{
    return formatElasticities(rng_);
}

Command
Stream::next()
{
    Command command = spec_.pooled ? pooledNext() : flatNext();
    ++position_;
    return command;
}

Command
Stream::flatNext()
{
    const std::uint64_t phase = position_ % kFlatCycle;
    if (phase < kFlatUpdates)
        return {"UPDATE " + pickLive() + " " + elasticities(),
                OpClass::Mutation};
    if (phase == kFlatUpdates)
        return {"TICK", OpClass::Tick};
    return {"QUERY " + pickLive(), OpClass::Query};
}

Command
Stream::pooledNext()
{
    if (connection_ == 0 &&
        position_ % kPooledTickEvery == kPooledTickEvery - 1)
        return {"TICK", OpClass::Tick};
    if (!pendingAssign_.empty()) {
        Command assign{std::move(pendingAssign_), OpClass::Mutation};
        pendingAssign_.clear();
        return assign;
    }
    const double draw = rng_.unit();
    if (draw < 0.30)
        return {"UPDATE " + pickLive() + " " + elasticities(),
                OpClass::Mutation};
    if (draw < 0.40) {
        const std::string name = "c" + std::to_string(connection_) +
                                 "n" + std::to_string(admitted_++);
        live_.push_back(name);
        pendingAssign_ =
            "POOL ASSIGN " + name + " " +
            poolPath(zipfIndex(spec_.pools, rng_.unit()));
        return {"ADMIT " + name + " " + elasticities(),
                OpClass::Mutation};
    }
    if (draw < 0.50 && live_.size() > kPooledMinOwned) {
        const std::size_t victim = rng_.below(live_.size());
        std::string name = std::move(live_[victim]);
        live_[victim] = std::move(live_.back());
        live_.pop_back();
        return {"DEPART " + name, OpClass::Mutation};
    }
    return {"QUERY " + pickLive(), OpClass::Query};
}

std::vector<Replayed>
replayOrder(const WorkloadSpec &spec, std::uint64_t seed,
            const std::vector<std::uint64_t> &sent, std::uint64_t cap)
{
    std::vector<std::vector<Command>> perConnection(spec.connections);
    for (std::size_t c = 0; c < spec.connections && c < sent.size(); ++c) {
        Stream stream(spec, seed, c);
        for (std::uint64_t i = 0; i < std::min(sent[c], cap); ++i)
            perConnection[c].push_back(stream.next());
    }
    std::vector<Replayed> replay;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (std::size_t c = 0; c < perConnection.size(); ++c) {
            if (i < perConnection[c].size()) {
                replay.push_back({c, i, perConnection[c][i]});
                any = true;
            }
        }
        if (!any)
            return replay;
    }
}

} // namespace refbench

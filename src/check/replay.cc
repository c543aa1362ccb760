#include "check/replay.hh"

namespace msgsim::check
{

namespace
{

Json
scenarioToJson(const ScenarioConfig &sc)
{
    Json j = Json::object();
    j.set("protocol", sc.protocol);
    j.set("substrate", toString(sc.substrate));
    j.set("nodes", static_cast<std::int64_t>(sc.nodes));
    j.set("packets", static_cast<std::int64_t>(sc.packets));
    j.set("group_ack", sc.groupAck);
    j.set("faults", sc.faults);
    j.set("fault_kinds",
          static_cast<std::int64_t>(sc.effectiveFaultKinds()));
    j.set("bug_ack_before_insert", sc.bugAckBeforeInsert);
    if (sc.protocol.rfind("wire_", 0) == 0) {
        j.set("streams", static_cast<std::int64_t>(sc.streams));
        j.set("window", sc.window);
        j.set("wire_corrupt_every",
              static_cast<std::int64_t>(sc.wireCorruptEvery));
        j.set("bug_wire_reset_deliver", sc.bugWireResetDeliver);
    }
    return j;
}

bool
scenarioFromJson(const Json &j, ScenarioConfig &sc,
                 std::string &error)
{
    const Json *p = j.find("protocol");
    if (!p || p->kind() != Json::Kind::String) {
        error = "scenario.protocol missing";
        return false;
    }
    sc.protocol = p->asString();
    if (const Json *s = j.find("substrate")) {
        if (!parseSubstrate(s->asString(), sc.substrate)) {
            error = "unknown substrate '" + s->asString() + "'";
            return false;
        }
    }
    if (const Json *v = j.find("nodes"))
        sc.nodes = static_cast<std::uint32_t>(v->asInt());
    if (const Json *v = j.find("packets"))
        sc.packets = static_cast<std::uint32_t>(v->asInt());
    if (const Json *v = j.find("group_ack"))
        sc.groupAck = static_cast<int>(v->asInt());
    if (const Json *v = j.find("faults"))
        sc.faults = static_cast<int>(v->asInt());
    if (const Json *v = j.find("fault_kinds"))
        sc.faultKinds = static_cast<unsigned>(v->asInt());
    if (const Json *v = j.find("bug_ack_before_insert"))
        sc.bugAckBeforeInsert = v->asBool();
    // Wire-layer fields: optional, so pre-wire counterexample files
    // keep parsing with the defaults.
    if (const Json *v = j.find("streams"))
        sc.streams = static_cast<std::uint32_t>(v->asInt());
    if (const Json *v = j.find("window"))
        sc.window = static_cast<int>(v->asInt());
    if (const Json *v = j.find("wire_corrupt_every"))
        sc.wireCorruptEvery = static_cast<std::uint32_t>(v->asInt());
    if (const Json *v = j.find("bug_wire_reset_deliver"))
        sc.bugWireResetDeliver = v->asBool();
    return true;
}

} // namespace

Json
scheduleToJson(const std::vector<Choice> &schedule)
{
    Json arr = Json::array();
    for (const Choice &c : schedule) {
        Json e = Json::object();
        e.set("kind", toString(c.kind));
        e.set("packet", static_cast<std::int64_t>(c.packetId));
        arr.push(std::move(e));
    }
    return arr;
}

std::string
counterexampleToJson(const Counterexample &ce)
{
    Json j = Json::object();
    j.set("scenario", scenarioToJson(ce.scenario));
    j.set("invariant", ce.invariant);
    j.set("detail", ce.detail);
    j.set("schedule", scheduleToJson(ce.schedule));
    return j.dump(2) + "\n";
}

bool
counterexampleFromJson(const std::string &text, Counterexample &out,
                       std::string &error)
{
    Json j;
    if (!Json::parse(text, j, &error))
        return false;
    const Json *sc = j.find("scenario");
    if (!sc) {
        error = "counterexample lacks a scenario object";
        return false;
    }
    if (!scenarioFromJson(*sc, out.scenario, error))
        return false;
    if (const Json *v = j.find("invariant"))
        out.invariant = v->asString();
    if (const Json *v = j.find("detail"))
        out.detail = v->asString();
    out.schedule.clear();
    if (const Json *arr = j.find("schedule")) {
        for (std::size_t i = 0; i < arr->size(); ++i) {
            const Json &e = arr->at(i);
            Choice c;
            const Json *kind = e.find("kind");
            if (!kind ||
                !choiceKindFromString(kind->asString(), c.kind)) {
                error = "bad choice kind in schedule";
                return false;
            }
            if (const Json *p = e.find("packet"))
                c.packetId =
                    static_cast<std::uint64_t>(p->asInt());
            out.schedule.push_back(c);
        }
    }
    return true;
}

std::string
reportToJson(const CheckReport &rep)
{
    Json j = Json::object();
    j.set("scenario", scenarioToJson(rep.scenario));

    Json lim = Json::object();
    lim.set("depth", rep.limits.depth);
    lim.set("budget", static_cast<std::int64_t>(rep.limits.budget));
    lim.set("max_steps",
            static_cast<std::int64_t>(rep.limits.maxSteps));
    lim.set("walks", rep.limits.walks);
    lim.set("seed", static_cast<std::int64_t>(rep.limits.seed));
    j.set("limits", std::move(lim));

    j.set("schedules_run",
          static_cast<std::int64_t>(rep.schedulesRun));
    j.set("dfs_schedules",
          static_cast<std::int64_t>(rep.dfsSchedules));
    j.set("walk_schedules",
          static_cast<std::int64_t>(rep.walkSchedules));
    j.set("steps_total", static_cast<std::int64_t>(rep.stepsTotal));
    j.set("max_choice_points",
          static_cast<std::int64_t>(rep.maxChoicePoints));
    j.set("exhausted", rep.exhausted);
    j.set("violations", static_cast<std::int64_t>(rep.violations));
    j.set("verdict", rep.violations ? "violation" : "ok");
    if (rep.violations) {
        Json ce = Json::object();
        ce.set("invariant", rep.counterexample.invariant);
        ce.set("detail", rep.counterexample.detail);
        ce.set("steps",
               static_cast<std::int64_t>(rep.counterexample.steps));
        ce.set("schedule",
               scheduleToJson(rep.counterexample.schedule));
        j.set("counterexample", std::move(ce));
    }
    return j.dump(2) + "\n";
}

} // namespace msgsim::check

/**
 * @file
 * Named constructors for the fault::FaultAction kinds that the fault
 * and parallel-determinism tests script. Each sets only the members
 * its kind reads, so a plan reads as a list of faults rather than a
 * positional brace-init.
 */

#ifndef PMNET_TESTS_FAULT_ACTIONS_H
#define PMNET_TESTS_FAULT_ACTIONS_H

#include "fault/fault_plan.h"

namespace pmnet::fault_test {

using fault::FaultAction;

/** Uniform loss @p p on both directions of the server link for
 *  @p duration, then the clean channel again. */
inline FaultAction
uniformLossAt(TickDelta at, TickDelta duration, double p)
{
    FaultAction action;
    action.kind = FaultAction::Kind::Impair;
    action.at = at;
    action.duration = duration;
    action.where = FaultAction::Where::ServerLink;
    action.impair = net::Impairment::uniformLoss(p);
    return action;
}

/** Drop the next @p count packets on @p where's link, in the
 *  server-bound direction when @p toward_server. */
inline FaultAction
dropNextAt(TickDelta at, int count, bool toward_server,
           FaultAction::Where where)
{
    FaultAction action;
    action.kind = FaultAction::Kind::DropNext;
    action.at = at;
    action.count = count;
    action.towardServer = toward_server;
    action.where = where;
    return action;
}

/** Power-cut the server host at @p at; restore after @p outage. */
inline FaultAction
serverPowerCutAt(TickDelta at, TickDelta outage)
{
    FaultAction action;
    action.kind = FaultAction::Kind::ServerPowerCut;
    action.at = at;
    action.duration = outage;
    return action;
}

/** Replace device @p device with an empty-log unit at @p at. */
inline FaultAction
deviceReplaceAt(TickDelta at, int device)
{
    FaultAction action;
    action.kind = FaultAction::Kind::DeviceReplace;
    action.at = at;
    action.index = device;
    return action;
}

} // namespace pmnet::fault_test

#endif // PMNET_TESTS_FAULT_ACTIONS_H

#include "flexwatts/flexwatts_pdn.hh"

#include "pdn/rail_chains.hh"

namespace pdnspot
{

namespace
{

constexpr std::array<DomainId, 1> saRailDomains = {DomainId::SA};
constexpr std::array<DomainId, 1> ioRailDomains = {DomainId::IO};

} // anonymous namespace

FlexWattsPdn::FlexWattsPdn(PdnPlatformParams platform,
                           FlexWattsParams params)
    : PdnModel(platform),
      _params(params),
      _ivr(IvrParams{.name = "HybridVR(IVR)"}),
      _ldo(LdoParams{.name = "HybridVR(LDO)"}),
      _vrIn(BuckParams::motherboard("V_IN")),
      _vrSa(BuckParams::motherboard("V_SA")),
      _vrIo(BuckParams::motherboard("V_IO")),
      _llInIvrMode(params.rllInIvrMode),
      _llInLdoMode(params.rllInLdoMode),
      _llSa(params.rllSa),
      _llIo(params.rllIo)
{}

EteeResult
FlexWattsPdn::evaluate(const PlatformState &state, HybridMode mode) const
{
    ChainContext ctx{_platform, _guardband};

    ChainResult compute =
        mode == HybridMode::IvrMode
            ? evalIvrChain(ctx, state, computeDomains, _ivr, _vrIn,
                           _params.tobIvrMode, _llInIvrMode)
            : evalLdoChain(ctx, state, computeDomains, _ldo, _vrIn,
                           _params.tobLdoMode, _llInLdoMode);

    Voltage uncore_tob = mode == HybridMode::IvrMode
                             ? _params.tobIvrMode
                             : _params.tobLdoMode;
    ChainResult sa = evalSharedBoardRail(
        ctx, state, saRailDomains, _vrSa, uncore_tob, _llSa, true);
    ChainResult io = evalSharedBoardRail(
        ctx, state, ioRailDomains, _vrIo, uncore_tob, _llIo, true);
    ChainResult uncore = sa;
    uncore.accumulate(io);

    EteeResult r;
    r.nominalPower = compute.nominalPower + uncore.nominalPower;
    r.inputPower = compute.inputPower + uncore.inputPower;
    r.loss.vrLoss = compute.vrLoss + uncore.vrLoss;
    r.loss.conductionCompute = compute.conduction;
    r.loss.conductionUncore = uncore.conduction;
    r.loss.other = compute.guardExcess + uncore.guardExcess;
    r.chipInputCurrent = compute.chipCurrent + uncore.chipCurrent;
    r.computeLoadLine = mode == HybridMode::IvrMode
                            ? _params.rllInIvrMode
                            : _params.rllInLdoMode;
    return r;
}

ModeEvaluation
FlexWattsPdn::evaluateBest(const PlatformState &state) const
{
    EteeResult ivr = evaluate(state, HybridMode::IvrMode);
    EteeResult ldo = evaluate(state, HybridMode::LdoMode);
    // Tie-break toward IVR-Mode, mirroring Algorithm 1's ">=".
    if (ivr.etee() >= ldo.etee())
        return {HybridMode::IvrMode, ivr};
    return {HybridMode::LdoMode, ldo};
}

HybridMode
FlexWattsPdn::bestMode(const PlatformState &state) const
{
    return evaluateBest(state).mode;
}

EteeResult
FlexWattsPdn::evaluate(const PlatformState &state) const
{
    return evaluateBest(state).etee;
}

std::vector<OffChipRail>
FlexWattsPdn::offChipRails(const PlatformState &peak) const
{
    ChainContext ctx{_platform, _guardband};
    // V_IN is sized for IVR-Mode current: high-power workloads always
    // run in IVR-Mode, so LDO-Mode never sees more current than the
    // IVR-Mode Iccmax (Sec. 7).
    return {
        sizeIvrInputRail(ctx, peak, computeDomains, _ivr, "V_IN",
                         _params.tobIvrMode),
        sizeSharedBoardRail(ctx, peak, saRailDomains, "V_SA",
                            _params.tobIvrMode, true),
        sizeSharedBoardRail(ctx, peak, ioRailDomains, "V_IO",
                            _params.tobIvrMode, true),
    };
}

} // namespace pdnspot

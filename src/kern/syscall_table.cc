#include "src/kern/syscall_table.h"

#include "src/kern/ipc.h"

namespace fluke {

// Handlers defined in syscalls.cc.
KTask SysNull(SysCtx&);
KTask SysThreadSelf(SysCtx&);
KTask SysSpaceSelf(SysCtx&);
KTask SysClockGet(SysCtx&);
KTask SysCpuId(SysCtx&);
KTask SysPageSize(SysCtx&);
KTask SysApiVersion(SysCtx&);
KTask SysRandomGet(SysCtx&);
KTask SysObjCreate(SysCtx&);
KTask SysObjDestroy(SysCtx&);
KTask SysObjRename(SysCtx&);
KTask SysObjReference(SysCtx&);
KTask SysObjGetState(SysCtx&);
KTask SysObjSetState(SysCtx&);
KTask SysMutexTrylock(SysCtx&);
KTask SysMutexUnlock(SysCtx&);
KTask SysCondSignal(SysCtx&);
KTask SysCondBroadcast(SysCtx&);
KTask SysRegionProtect(SysCtx&);
KTask SysRegionInfo(SysCtx&);
KTask SysMappingInfo(SysCtx&);
KTask SysPortsetAdd(SysCtx&);
KTask SysPortsetRemove(SysCtx&);
KTask SysThreadInterrupt(SysCtx&);
KTask SysThreadResume(SysCtx&);
KTask SysConsolePutc(SysCtx&);
KTask SysMutexLock(SysCtx&);
KTask SysClockSleep(SysCtx&);
KTask SysThreadJoin(SysCtx&);
KTask SysThreadStopSelf(SysCtx&);
KTask SysIrqWait(SysCtx&);
KTask SysDiskWait(SysCtx&);
KTask SysConsoleGetc(SysCtx&);
KTask SysPortsetWait(SysCtx&);
KTask SysCondWait(SysCtx&);
KTask SysRegionSearch(SysCtx&);

namespace {

constexpr uint32_t Aux(ObjType t) { return static_cast<uint32_t>(t); }

std::vector<SyscallDef> BuildTable() {
  std::vector<SyscallDef> defs;
  auto add = [&defs](uint32_t num, SysCat cat, KTask (*h)(SysCtx&), uint32_t aux = 0,
                     bool restart = false) {
    defs.push_back(SyscallDef{num, SysName(num), cat, restart, aux, h});
  };
  auto common = [&](ObjType type, uint32_t create, uint32_t destroy, uint32_t rename,
                    uint32_t reference, uint32_t getst, uint32_t setst) {
    add(create, SysCat::kShort, SysObjCreate, Aux(type));
    add(destroy, SysCat::kShort, SysObjDestroy, Aux(type));
    add(rename, SysCat::kShort, SysObjRename, Aux(type));
    add(reference, SysCat::kShort, SysObjReference, Aux(type));
    add(getst, SysCat::kShort, SysObjGetState, Aux(type));
    add(setst, SysCat::kShort, SysObjSetState, Aux(type));
  };

  // --- Trivial (8) ---
  add(kSysNull, SysCat::kTrivial, SysNull);
  add(kSysThreadSelf, SysCat::kTrivial, SysThreadSelf);
  add(kSysSpaceSelf, SysCat::kTrivial, SysSpaceSelf);
  add(kSysClockGet, SysCat::kTrivial, SysClockGet);
  add(kSysCpuId, SysCat::kTrivial, SysCpuId);
  add(kSysPageSize, SysCat::kTrivial, SysPageSize);
  add(kSysApiVersion, SysCat::kTrivial, SysApiVersion);
  add(kSysRandomGet, SysCat::kTrivial, SysRandomGet);

  // --- Short: common operations on the nine object types (54) ---
  common(ObjType::kMutex, kSysMutexCreate, kSysMutexDestroy, kSysMutexRename, kSysMutexReference,
         kSysMutexGetState, kSysMutexSetState);
  common(ObjType::kCond, kSysCondCreate, kSysCondDestroy, kSysCondRename, kSysCondReference,
         kSysCondGetState, kSysCondSetState);
  common(ObjType::kMapping, kSysMappingCreate, kSysMappingDestroy, kSysMappingRename,
         kSysMappingReference, kSysMappingGetState, kSysMappingSetState);
  common(ObjType::kRegion, kSysRegionCreate, kSysRegionDestroy, kSysRegionRename,
         kSysRegionReference, kSysRegionGetState, kSysRegionSetState);
  common(ObjType::kPort, kSysPortCreate, kSysPortDestroy, kSysPortRename, kSysPortReference,
         kSysPortGetState, kSysPortSetState);
  common(ObjType::kPortset, kSysPortsetCreate, kSysPortsetDestroy, kSysPortsetRename,
         kSysPortsetReference, kSysPortsetGetState, kSysPortsetSetState);
  common(ObjType::kSpace, kSysSpaceCreate, kSysSpaceDestroy, kSysSpaceRename, kSysSpaceReference,
         kSysSpaceGetState, kSysSpaceSetState);
  common(ObjType::kThread, kSysThreadCreate, kSysThreadDestroy, kSysThreadRename,
         kSysThreadReference, kSysThreadGetState, kSysThreadSetState);
  common(ObjType::kReference, kSysRefCreate, kSysRefDestroy, kSysRefRename, kSysRefReference,
         kSysRefGetState, kSysRefSetState);

  // --- Short: type-specific (14) ---
  add(kSysMutexTrylock, SysCat::kShort, SysMutexTrylock);
  add(kSysMutexUnlock, SysCat::kShort, SysMutexUnlock);
  add(kSysCondSignal, SysCat::kShort, SysCondSignal);
  add(kSysCondBroadcast, SysCat::kShort, SysCondBroadcast);
  add(kSysRegionProtect, SysCat::kShort, SysRegionProtect);
  add(kSysRegionInfo, SysCat::kShort, SysRegionInfo);
  add(kSysMappingInfo, SysCat::kShort, SysMappingInfo);
  add(kSysPortsetAdd, SysCat::kShort, SysPortsetAdd);
  add(kSysPortsetRemove, SysCat::kShort, SysPortsetRemove);
  add(kSysThreadInterrupt, SysCat::kShort, SysThreadInterrupt);
  add(kSysThreadResume, SysCat::kShort, SysThreadResume);
  add(kSysConsolePutc, SysCat::kShort, SysConsolePutc);
  add(kSysIpcClientDisconnect, SysCat::kShort, SysIpcClientDisconnect);
  add(kSysIpcServerDisconnect, SysCat::kShort, SysIpcServerDisconnect);

  // --- Long (8) ---
  add(kSysMutexLock, SysCat::kLong, SysMutexLock, 0, /*restart=*/true);
  add(kSysClockSleep, SysCat::kLong, SysClockSleep);
  add(kSysThreadJoin, SysCat::kLong, SysThreadJoin);
  add(kSysThreadStopSelf, SysCat::kLong, SysThreadStopSelf);
  add(kSysIrqWait, SysCat::kLong, SysIrqWait);
  add(kSysDiskWait, SysCat::kLong, SysDiskWait);
  add(kSysConsoleGetc, SysCat::kLong, SysConsoleGetc);
  add(kSysPortsetWait, SysCat::kLong, SysPortsetWait);

  // --- Multi-stage (23): cond_wait, region_search + 21 IPC ---
  add(kSysCondWait, SysCat::kMultiStage, SysCondWait);
  add(kSysRegionSearch, SysCat::kMultiStage, SysRegionSearch);
  add(kSysIpcClientConnect, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientConnectSend, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientConnectSendOverReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientSend, SysCat::kMultiStage, SysIpcEngine, 0, /*restart=*/true);
  add(kSysIpcClientSendOverReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientReceive, SysCat::kMultiStage, SysIpcEngine, 0, /*restart=*/true);
  add(kSysIpcClientAlert, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientOnewaySend, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcClientConnectOnewaySend, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerReceive, SysCat::kMultiStage, SysIpcEngine, 0, /*restart=*/true);
  add(kSysIpcServerSend, SysCat::kMultiStage, SysIpcEngine, 0, /*restart=*/true);
  add(kSysIpcServerSendOverReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerAckSend, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerAckSendOverReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerAckSendWaitReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerSendWaitReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerOnewayReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcServerAlertWait, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcWaitReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcReplyWaitReceive, SysCat::kMultiStage, SysIpcEngine);
  add(kSysIpcExceptionSend, SysCat::kMultiStage, SysIpcEngine);

  // Frameless twins (dispatch.cc consults `fast` when instrumentation is
  // disarmed or trace-only -- Kernel::TraceOnlyInstrumentation; a fault
  // plan and an undrained checkpoint keep every call on `handler`). Each is
  // wired to the calls it can finish or block at entry without a frame the
  // wake would have to resume; everything else has no twin.
  for (auto& d : defs) {
    d.frame_bytes = ProbeFrameSize(d.handler);
    if (d.cat == SysCat::kTrivial) {
      d.fast = FastTrivial;
    }
    switch (d.num) {
      case kSysMutexLock:
        d.fast = FastMutexLock;
        break;
      case kSysMutexUnlock:
        d.fast = FastMutexUnlock;
        break;
      case kSysClockSleep:
        d.fast = FastClockSleep;
        break;
      case kSysThreadInterrupt:
        d.fast = FastThreadInterrupt;
        break;
      case kSysIpcClientConnect:
        d.fast = FastIpcConnect;
        break;
      case kSysIpcWaitReceive:
        d.fast = FastIpcWaitReceive;
        break;
      case kSysIpcClientDisconnect:
      case kSysIpcServerDisconnect:
        d.fast = FastIpcDisconnect;
        break;
      case kSysIpcClientSend:
      case kSysIpcClientSendOverReceive:
      case kSysIpcServerSend:
      case kSysIpcServerSendOverReceive:
      case kSysIpcServerAckSend:
      case kSysIpcServerAckSendOverReceive:
        d.fast = FastIpcSend;
        break;
      default:
        break;
    }
  }

  return defs;
}

}  // namespace

const std::vector<SyscallDef>& AllSyscalls() {
  static const std::vector<SyscallDef> kTable = BuildTable();
  return kTable;
}

const SyscallDef* const* SyscallsByNum() {
  static const std::vector<const SyscallDef*> kByNum = [] {
    std::vector<const SyscallDef*> v(kSysCount, nullptr);
    for (const auto& d : AllSyscalls()) {
      v[d.num] = &d;
    }
    return v;
  }();
  return kByNum.data();
}

const SyscallDef* GetSyscall(uint32_t num) {
  if (num >= kSysCount) {
    return nullptr;
  }
  return SyscallsByNum()[num];
}

}  // namespace fluke

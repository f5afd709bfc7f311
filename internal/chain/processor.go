package chain

import (
	"errors"
	"fmt"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Transaction validation errors.
var (
	ErrNonceMismatch       = errors.New("chain: transaction nonce mismatch")
	ErrInsufficientFunds   = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas        = errors.New("chain: gas limit below intrinsic cost")
	ErrGasLimitExceeded    = errors.New("chain: block gas limit exceeded")
	ErrUnknownParent       = errors.New("chain: unknown parent block")
	ErrStateRootMismatch   = errors.New("chain: state root mismatch")
	ErrTxRootMismatch      = errors.New("chain: transaction root mismatch")
	ErrNonContiguousNumber = errors.New("chain: non-contiguous block number")
)

// ApplyTransaction executes tx against state and returns its receipt.
//
// Semantics follow Ethereum's: the nonce must match, the sender pre-pays
// gasLimit*gasPrice, execution runs with the remaining gas, failed
// executions revert all state changes except the nonce bump and the gas
// payment, and the miner is credited with gasUsed*gasPrice.
func ApplyTransaction(state *State, tx *Transaction, miner types.Address) (*Receipt, error) {
	return ApplyTransactionHooked(state, tx, miner, nil)
}

// ApplyTransactionHooked is ApplyTransaction with an optional cross-shard
// call interceptor installed in the VM (see evm.RemoteHook). The sharded
// execution engine uses it to divert internal calls that leave the
// executing shard into receipts.
func ApplyTransactionHooked(state *State, tx *Transaction, miner types.Address, hook evm.RemoteHook) (*Receipt, error) {
	receipt := &Receipt{TxHash: tx.Hash()}

	if got := state.GetNonce(tx.From); got != tx.Nonce {
		return nil, fmt.Errorf("%w: account %v has nonce %d, tx has %d",
			ErrNonceMismatch, tx.From, got, tx.Nonce)
	}
	intrinsic := tx.intrinsicGas()
	if tx.GasLimit < intrinsic {
		return nil, fmt.Errorf("%w: limit %d < intrinsic %d", ErrIntrinsicGas, tx.GasLimit, intrinsic)
	}
	gasCost := evm.WordFromUint64(tx.GasLimit * tx.GasPrice)
	totalCost := gasCost.Add(tx.Value)
	if state.GetBalance(tx.From).Cmp(totalCost) < 0 {
		return nil, fmt.Errorf("%w: account %v", ErrInsufficientFunds, tx.From)
	}

	// Buy gas and bump the nonce; these survive execution failure.
	state.SubBalance(tx.From, gasCost)
	state.SetNonce(tx.From, tx.Nonce+1)
	state.DiscardJournal()

	snap := state.Snapshot()
	vm := evm.New(state)
	if hook != nil {
		vm.SetRemoteHook(hook)
	}
	gas := tx.GasLimit - intrinsic

	var (
		gasLeft uint64
		execErr error
	)
	if tx.IsCreate() {
		// The contract address derives from the sender's pre-transaction
		// nonce, as in Ethereum.
		addr := types.ContractAddress(tx.From, tx.Nonce)
		gasLeft, execErr = vm.CreateAt(tx.From, addr, tx.Data, tx.Value, gas)
		if execErr == nil {
			receipt.ContractAddress = &addr
		}
	} else {
		_, gasLeft, execErr = vm.Call(tx.From, *tx.To, tx.Value, tx.Data, gas)
	}

	if execErr != nil {
		state.RevertToSnapshot(snap)
		gasLeft = 0 // failed executions consume all gas, as post-Homestead Ethereum
	}
	state.DiscardJournal()

	gasUsed := tx.GasLimit - gasLeft
	// Refund unused gas and pay the miner.
	state.AddBalance(tx.From, evm.WordFromUint64(gasLeft*tx.GasPrice))
	state.AddBalance(miner, evm.WordFromUint64(gasUsed*tx.GasPrice))
	state.DiscardJournal()

	receipt.Success = execErr == nil
	receipt.Err = execErr
	receipt.GasUsed = gasUsed
	// Copy: the VM owns its trace slice.
	receipt.Traces = append([]evm.CallTrace(nil), vm.Traces()...)
	return receipt, nil
}

// Package branch implements the multi-branch GridBank of §6: "GridBank
// system will be expanded to provide multiple servers/branches across the
// Grid... Each Virtual Organization associates a GridBank server that all
// participants of the organization use. If a GSC is from one VO and GSP
// is from another, then their respective servers will need to define
// protocols for settling accounts between the branches."
//
// The model is correspondent banking: every pair of branches holds vostro
// accounts at each other (this is what the account ID's branch number is
// for — "it is precisely for this purpose that GridBank accounts have
// branch numbers"). A foreign cheque is settled by the issuing branch
// into the payee branch's vostro there; the payee branch credits the
// payee on its own books; end-of-day netting offsets mutual obligations.
package branch

import (
	"errors"
	"fmt"
	"sync"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/payment"
)

// Errors.
var (
	ErrUnknownBranch = errors.New("branch: unknown branch number")
	ErrDupBranch     = errors.New("branch: branch number already registered")
	ErrNotForeign    = errors.New("branch: cheque is not drawn on a foreign branch")
)

// Branch is one VO's GridBank in the network.
type Branch struct {
	// Number is the four-digit branch number this bank issues accounts
	// under.
	Number string
	// Bank is the branch's GridBank server core.
	Bank *core.Bank
	// vostro maps a peer branch number to the peer's account *at this
	// bank*.
	vostro map[string]accounts.ID
}

// VostroFor returns the account the peer branch holds at this branch.
func (b *Branch) VostroFor(peer string) (accounts.ID, bool) {
	id, ok := b.vostro[peer]
	return id, ok
}

// Network is a set of branches with pairwise correspondent accounts.
type Network struct {
	mu       sync.Mutex
	branches map[string]*Branch
}

// NewNetwork creates an empty branch network.
func NewNetwork() *Network {
	return &Network{branches: make(map[string]*Branch)}
}

// AddBranch registers a branch and opens vostro accounts pairwise with
// every existing branch: the new branch's bank identity gets an account
// at each peer, and vice versa.
func (n *Network) AddBranch(bank *core.Bank) (*Branch, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	num := bank.Ledger().ShardManager(0).BranchNumber() // same on every shard
	if _, ok := n.branches[num]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDupBranch, num)
	}
	br := &Branch{Number: num, Bank: bank, vostro: make(map[string]accounts.ID)}
	for peerNum, peer := range n.branches {
		// Peer's vostro at the new branch.
		pv, err := bank.Ledger().CreateAccount(peer.Bank.Identity().SubjectName(), "interbank", currency.GridDollar)
		if err != nil {
			return nil, fmt.Errorf("branch: vostro for %s at %s: %w", peerNum, num, err)
		}
		br.vostro[peerNum] = pv.AccountID
		// New branch's vostro at the peer.
		nv, err := peer.Bank.Ledger().CreateAccount(bank.Identity().SubjectName(), "interbank", currency.GridDollar)
		if err != nil {
			return nil, fmt.Errorf("branch: vostro for %s at %s: %w", num, peerNum, err)
		}
		peer.vostro[num] = nv.AccountID
	}
	n.branches[num] = br
	return br, nil
}

// Branch returns a registered branch.
func (n *Network) Branch(num string) (*Branch, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.branches[num]
	return b, ok
}

// CrossRedemption reports a settled foreign cheque.
type CrossRedemption struct {
	Serial        string
	IssuingBranch string
	PayeeBranch   string
	Paid          currency.Amount
	// IssuingTx is the transfer at the issuing branch (drawer → vostro).
	IssuingTx uint64
}

// RedeemForeignCheque settles a cheque drawn on another branch for a
// payee banked at homeBranch. Flow: verify at home (payee identity, bank
// signature); forward to the issuing branch, which pays the claim from
// the drawer's locked funds into homeBranch's vostro there; credit the
// payee at home against that asset.
func (n *Network) RedeemForeignCheque(homeBranch, payeeCert string, cheque *payment.SignedCheque, claim *payment.ChequeClaim) (*CrossRedemption, error) {
	n.mu.Lock()
	home, ok := n.branches[homeBranch]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownBranch, homeBranch)
	}
	issuingNum := cheque.Cheque.DrawerAccountID.Branch()
	issuing, ok := n.branches[issuingNum]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (drawn on)", ErrUnknownBranch, issuingNum)
	}
	if issuingNum == homeBranch {
		return nil, fmt.Errorf("%w: drawn on %s, presented at %s", ErrNotForeign, issuingNum, homeBranch)
	}
	// Home-side verification: signature, expiry, payee binding.
	if _, err := payment.VerifyCheque(cheque, home.Bank.Trust(), payeeCert, home.Bank.Now()); err != nil {
		return nil, fmt.Errorf("branch: home verification: %w", err)
	}
	// The payee must bank at home.
	payeeAcct, err := home.Bank.Ledger().FindByCertificate(payeeCert, cheque.Cheque.Currency)
	if err != nil {
		return nil, fmt.Errorf("branch: payee has no account at %s: %w", homeBranch, err)
	}
	// Issuing-side settlement into home's vostro.
	vostro, ok := issuing.vostro[homeBranch]
	if !ok {
		return nil, fmt.Errorf("branch: no vostro for %s at %s", homeBranch, issuingNum)
	}
	resp, err := issuing.Bank.RedeemChequeInterbank(home.Bank.Identity().SubjectName(), vostro,
		&core.RedeemChequeRequest{Cheque: *cheque, Claim: *claim})
	if err != nil {
		return nil, fmt.Errorf("branch: issuing-side settlement: %w", err)
	}
	// Home-side credit, backed by the vostro asset.
	if err := home.Bank.Ledger().Deposit(payeeAcct.AccountID, resp.Paid); err != nil {
		return nil, fmt.Errorf("branch: home-side credit: %w", err)
	}
	return &CrossRedemption{
		Serial:        cheque.Cheque.Serial,
		IssuingBranch: issuingNum,
		PayeeBranch:   homeBranch,
		Paid:          resp.Paid,
		IssuingTx:     resp.TransactionID,
	}, nil
}

// Settlement is the result of end-of-day netting between two branches.
type Settlement struct {
	BranchA, BranchB string
	// GrossAtoB is what A's books owed B (B's vostro balance at A), and
	// vice versa, before netting.
	GrossAtoB, GrossBtoA currency.Amount
	// Netted is the offset amount cleared without money movement.
	Netted currency.Amount
	// NetPayer / NetAmount describe the residual one-way obligation
	// settled externally (empty payer when perfectly balanced).
	NetPayer  string
	NetAmount currency.Amount
}

// SettlePair nets the mutual vostro balances of two branches: offsetting
// amounts cancel; the residual is withdrawn from the debtor's books as an
// external settlement (NetCash/NetCheque-style inter-server clearing).
func (n *Network) SettlePair(numA, numB string) (*Settlement, error) {
	n.mu.Lock()
	a, okA := n.branches[numA]
	b, okB := n.branches[numB]
	n.mu.Unlock()
	if !okA {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBranch, numA)
	}
	if !okB {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBranch, numB)
	}
	vbAtA, ok := a.vostro[numB]
	if !ok {
		return nil, fmt.Errorf("branch: no vostro for %s at %s", numB, numA)
	}
	vaAtB, ok := b.vostro[numA]
	if !ok {
		return nil, fmt.Errorf("branch: no vostro for %s at %s", numA, numB)
	}
	acctBatA, err := a.Bank.Ledger().Details(vbAtA)
	if err != nil {
		return nil, err
	}
	acctAatB, err := b.Bank.Ledger().Details(vaAtB)
	if err != nil {
		return nil, err
	}
	grossAtoB := acctBatA.AvailableBalance
	grossBtoA := acctAatB.AvailableBalance
	netted := grossAtoB
	if grossBtoA.Cmp(netted) < 0 {
		netted = grossBtoA
	}
	st := &Settlement{BranchA: numA, BranchB: numB, GrossAtoB: grossAtoB, GrossBtoA: grossBtoA, Netted: netted}
	// Offset: withdraw the netted amount from both vostros.
	if netted.IsPositive() {
		if err := a.Bank.Ledger().Withdraw(vbAtA, netted); err != nil {
			return nil, err
		}
		if err := b.Bank.Ledger().Withdraw(vaAtB, netted); err != nil {
			return nil, err
		}
	}
	// Residual one-way obligation: cleared externally (real-money
	// transfer between the VOs' treasuries), recorded by withdrawing it
	// from the creditor's vostro on the debtor's books.
	switch {
	case grossAtoB.Cmp(grossBtoA) > 0:
		residual := grossAtoB.MustSub(netted)
		if residual.IsPositive() {
			if err := a.Bank.Ledger().Withdraw(vbAtA, residual); err != nil {
				return nil, err
			}
		}
		st.NetPayer = numA
		st.NetAmount = residual
	case grossBtoA.Cmp(grossAtoB) > 0:
		residual := grossBtoA.MustSub(netted)
		if residual.IsPositive() {
			if err := b.Bank.Ledger().Withdraw(vaAtB, residual); err != nil {
				return nil, err
			}
		}
		st.NetPayer = numB
		st.NetAmount = residual
	}
	return st, nil
}
